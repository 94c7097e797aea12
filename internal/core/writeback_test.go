package core

// A crowd operator stores every answer it pays for (§3.2.1). The write-back
// fills the answered columns in the row's live version, one transaction per
// collected HIT group: what other statements committed during the crowd
// wait survives it, and a durable store syncs once per group and shard.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"crowddb/internal/crowd"
	"crowddb/internal/sqltypes"
	"crowddb/internal/storage"
	"crowddb/internal/workload"
	"crowddb/internal/wrm"
)

// talkOracle answers every crowd column of talkSchema from the title.
func talkOracle() *workload.Oracle {
	o := workload.NewOracle()
	o.RegisterProbe("Talk", func(known map[string]sqltypes.Value, ask []string) *crowd.SimTruth {
		truth := map[string]string{}
		for _, col := range ask {
			truth[col] = "42"
			if col == "abstract" {
				truth[col] = "about " + known["title"].Str()
			}
		}
		return &crowd.SimTruth{Truth: truth, Difficulty: 0.05}
	})
	return o
}

const talkSchema = "CREATE TABLE Talk (title STRING PRIMARY KEY, room STRING, abstract CROWD STRING, nb_attendees CROWD INTEGER)"

// openTalks opens an engine over p (durable in dir when dir != "") holding
// talks rows of talkSchema, all in room 'A' with every crowd column CNULL.
func openTalks(t *testing.T, p crowd.Platform, dir string, shards, talks int) *Engine {
	t.Helper()
	eng, err := Open(Config{DataDir: dir, Shards: shards, WALSync: storage.SyncGroup, Platform: p, Oracle: talkOracle(), Payment: wrm.DefaultPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	mustExec(t, eng, talkSchema)
	for i := 0; i < talks; i++ {
		mustExec(t, eng, fmt.Sprintf("INSERT INTO Talk (title, room) VALUES ('talk %02d', 'A')", i))
	}
	return eng
}

// storedTalk reads talk 00 as stored, without asking the crowd.
func storedTalk(t *testing.T, eng *Engine) storage.Row {
	t.Helper()
	_, rows, err := eng.store.ScanRowsAt("Talk", eng.store.VisibleTS())
	if err != nil || len(rows) == 0 {
		t.Fatalf("reading Talk: %d rows, %v", len(rows), err)
	}
	return rows[0]
}

// reopened closes eng and opens its data directory again, crowd-free, so
// what a check reads is what the WAL made durable.
func reopened(t *testing.T, eng *Engine, dir string) *Engine {
	t.Helper()
	eng.Close()
	again, err := Open(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { again.Close() })
	return again
}

// postHook runs onPost once, at the first HIT group posted, after the
// group reached the platform. onPost runs under the task manager's
// scheduler lock: it must not run a crowd statement itself.
type postHook struct {
	crowd.Platform
	once   sync.Once
	onPost func()
}

func (p *postHook) Post(g *crowd.HITGroup) (crowd.GroupID, error) {
	id, err := p.Platform.Post(g)
	p.once.Do(p.onPost)
	return id, err
}

// TestCrowdWriteBackKeepsConcurrentUpdate: an UPDATE that commits while a
// SELECT waits for the crowd is not undone by the SELECT's write-back of
// the answer. (The write-back used to store the whole row as the SELECT's
// snapshot had it, putting room back to 'A'.)
func TestCrowdWriteBackKeepsConcurrentUpdate(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			dir := ""
			if durable {
				dir = t.TempDir()
			}
			var eng *Engine
			p := &postHook{Platform: newAMT(3), onPost: func() {
				done := make(chan error)
				go func() {
					_, err := eng.Exec("UPDATE Talk SET room = 'B' WHERE title = 'talk 00'")
					done <- err
				}()
				if err := <-done; err != nil {
					t.Error(err)
				}
			}}
			eng = openTalks(t, p, dir, 1, 1)
			res := mustExec(t, eng, "SELECT abstract FROM Talk")
			if res.Stats.ProbeRequests != 1 || res.Rows[0][0].Str() != "about talk 00" {
				t.Fatalf("the SELECT got %v for %d probes, want the crowd's abstract", res.Rows, res.Stats.ProbeRequests)
			}
			if durable {
				eng = reopened(t, eng, dir)
			}
			row := storedTalk(t, eng)
			if row[1].Str() != "B" || row[2].Str() != "about talk 00" {
				t.Errorf("stored talk is %v, want room 'B' from the UPDATE and the crowd's abstract", row)
			}
		})
	}
}

// holdFirst keeps the first posted group open until release is closed, so
// a second statement can post, collect and write back in between. The
// crowd's clock stands still until the second group is posted, and the
// task manager reads the time of the first post until release, so the
// held group never reaches its deadline. onFirst is started (not waited
// for) at the first post.
type holdFirst struct {
	crowd.Platform
	onFirst func()
	mu      sync.Mutex
	first   crowd.GroupID
	firstAt time.Duration
	posts   int
	second  chan struct{} // closed at the second post
	release chan struct{}
}

func (p *holdFirst) Post(g *crowd.HITGroup) (crowd.GroupID, error) {
	id, err := p.Platform.Post(g)
	p.mu.Lock()
	defer p.mu.Unlock()
	switch p.posts++; p.posts {
	case 1:
		p.first, p.firstAt = id, p.Platform.Now()
		go p.onFirst()
	case 2:
		close(p.second)
	}
	return id, err
}

func (p *holdFirst) Step(d time.Duration) {
	select { // released early when the second statement fails before posting
	case <-p.second:
	case <-p.release:
	}
	p.Platform.Step(d)
}

func (p *holdFirst) held() bool {
	select {
	case <-p.release:
		return false
	default:
		return true
	}
}

func (p *holdFirst) Now() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.posts > 0 && p.held() {
		return p.firstAt
	}
	return p.Platform.Now()
}

func (p *holdFirst) Status(id crowd.GroupID) (crowd.GroupStatus, error) {
	p.mu.Lock()
	first := id == p.first
	p.mu.Unlock()
	if first && p.held() {
		return crowd.GroupStatus{}, nil
	}
	return p.Platform.Status(id)
}

// TestCrowdWriteBackKeepsConcurrentAnswer: a second statement's paid
// answer for another crowd column of the same row, stored while the first
// statement waits for its own group, survives the first statement's
// write-back.
func TestCrowdWriteBackKeepsConcurrentAnswer(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			dir := ""
			if durable {
				dir = t.TempDir()
			}
			var eng *Engine
			p := &holdFirst{Platform: newAMT(3), second: make(chan struct{}), release: make(chan struct{})}
			p.onFirst = func() {
				defer close(p.release)
				res, err := eng.Exec("SELECT nb_attendees FROM Talk")
				if err != nil || res.Rows[0][0].Int() != 42 {
					t.Errorf("the second statement got %v, %v", res, err)
				}
			}
			eng = openTalks(t, p, dir, 1, 1)
			res := mustExec(t, eng, "SELECT abstract FROM Talk")
			if res.Rows[0][0].Str() != "about talk 00" {
				t.Fatalf("the first statement got %v", res.Rows)
			}
			if durable {
				eng = reopened(t, eng, dir)
			}
			row := storedTalk(t, eng)
			if row[2].Str() != "about talk 00" || row[3].IsCNull() || row[3].Int() != 42 {
				t.Errorf("stored talk is %v, want both statements' answers", row)
			}
		})
	}
}

// TestCrowdWriteBackSyncsOncePerGroup: on a durable store a crowd
// statement's write-backs commit once per collected HIT group, so it makes
// at most one WAL fsync per group and shard, not one per answered row.
func TestCrowdWriteBackSyncsOncePerGroup(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			eng := openTalks(t, newAMT(5), t.TempDir(), shards, 20)
			fsyncs := func() (n int64) {
				for i := 0; i < shards; i++ {
					n += eng.Metrics().Histogram("crowddb_wal_fsync_seconds", "", nil, "shard", fmt.Sprint(i)).Count()
				}
				return n
			}
			syncedBefore, groupsBefore := fsyncs(), eng.Tasks().Stats().GroupsPosted
			res := mustExec(t, eng, "SELECT abstract FROM Talk")
			synced, groups := fsyncs()-syncedBefore, eng.Tasks().Stats().GroupsPosted-groupsBefore
			if res.Stats.ProbeRequests < 20 || groups == 0 {
				t.Fatalf("probed %d rows in %d groups, want all 20", res.Stats.ProbeRequests, groups)
			}
			if synced > int64(groups*shards) {
				t.Errorf("the statement made %d WAL fsyncs for %d HIT groups on %d shards, want at most %d", synced, groups, shards, groups*shards)
			}
		})
	}
}
