package core

// A comparison answer reaches the store one way: the compare broker
// commits a collected HIT group's answers to the memo table in one
// transaction, before it makes them resident in the shared cache. So an
// answer another session can read is already durable, a durable store
// syncs once per group and shard, and a commit that fails fails its
// statement.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"crowddb/internal/crowd"
	"crowddb/internal/exec"
	"crowddb/internal/parser"
	"crowddb/internal/storage"
)

// storedAnswers reads eng's memo table as a fresh cache would load it.
func storedAnswers(t *testing.T, eng *Engine) *exec.CompareCache {
	t.Helper()
	c := exec.NewCompareCache()
	if err := c.Load(eng.store); err != nil {
		t.Fatal(err)
	}
	return c
}

// holdSecond keeps the second posted HIT group open until release is
// closed, so a statement that posted two groups is still running after it
// collected the first. At the second post, onSecond runs under the task
// manager's scheduler lock (it must not run a crowd statement). From the
// second post until release, the task manager reads the time of that post,
// so the held group never reaches its deadline; once answered is closed,
// the clock stands still until release.
type holdSecond struct {
	crowd.Platform
	onSecond func()
	answered chan struct{}
	release  chan struct{}
	mu       sync.Mutex
	posts    int
	second   crowd.GroupID
	secondAt time.Duration
}

func (p *holdSecond) Post(g *crowd.HITGroup) (crowd.GroupID, error) {
	id, err := p.Platform.Post(g)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.posts++; p.posts == 2 {
		p.second, p.secondAt = id, p.Platform.Now()
		p.onSecond()
	}
	return id, err
}

func (p *holdSecond) held() bool {
	select {
	case <-p.release:
		return false
	default:
		return true
	}
}

func (p *holdSecond) Step(d time.Duration) {
	select {
	case <-p.answered:
		<-p.release
	default:
	}
	p.Platform.Step(d)
}

func (p *holdSecond) Now() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.posts >= 2 && p.held() {
		return p.secondAt
	}
	return p.Platform.Now()
}

func (p *holdSecond) Status(id crowd.GroupID) (crowd.GroupStatus, error) {
	p.mu.Lock()
	second := id == p.second && p.posts >= 2
	p.mu.Unlock()
	if second && p.held() {
		return crowd.GroupStatus{}, nil
	}
	return p.Platform.Status(id)
}

// copyDir copies the regular files of src into a fresh directory: what a
// machine crash at this instant would leave of a data dir whose writes
// are all synced.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestCompareAnswerDurableBeforeShared: a follower whose adopted flight
// resolves finds the verdict in the memo table, and in a copy of the data
// dir reopened as after a crash, while the leader's statement is still
// running. (The answers used to reach the table at statement end, so a
// session could read an answer a crash would lose.)
func TestCompareAnswerDurableBeforeShared(t *testing.T) {
	dir := t.TempDir()
	var eng *Engine
	var follower exec.Claim
	var l, r string
	p := &holdSecond{Platform: newAMT(7), answered: make(chan struct{}), release: make(chan struct{})}
	claimed := make(chan struct{})
	p.onSecond = func() {
		follower = eng.Cache().ClaimEqual("", l, r)
		close(claimed)
	}
	eng, cs := pairCoreEngine(t, 7, 2, Config{DataDir: dir, Shards: 1, WALSync: storage.SyncGroup, Platform: p})
	c0 := cs.List[0]
	l, r = c0.Canonical, c0.Variants[len(c0.Variants)-1]

	done := make(chan error, 1)
	go func() {
		_, err := eng.Exec("SELECT id FROM Pair WHERE a ~= b")
		done <- err
	}()
	defer func() {
		if p.held() {
			close(p.release)
		}
		if err := <-done; err != nil {
			t.Error(err)
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	select {
	case <-claimed:
	case <-ctx.Done():
		t.Fatal("the statement never posted its second group")
	}
	if follower.Hit || follower.Leader {
		t.Fatalf("test setup: the claim taken at the second post must follow the statement's flight: %+v", follower)
	}
	v, ok := follower.WaitCtx(ctx)
	close(p.answered)
	if !ok {
		t.Fatal("the follower's flight resolved without an answer")
	}
	if !p.held() || len(done) > 0 {
		t.Fatal("test setup: the leader must still be waiting for its second group")
	}
	want := v == "yes"
	if same, ok := storedAnswers(t, eng).GetEqual("", l, r); !ok || same != want {
		t.Errorf("the follower read %q, the memo table holds %v, %v", v, same, ok)
	}
	again, err := Open(Config{DataDir: copyDir(t, dir)})
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if same, ok := again.Cache().GetEqual("", l, r); !ok || same != want {
		t.Errorf("the follower read %q, the reopened store holds %v, %v", v, same, ok)
	}
}

// TestCompareAnswersSyncOncePerGroup: a CROWDEQUAL statement on a durable
// store commits its answers once per collected HIT group, so it makes at
// most one WAL fsync per group and shard.
func TestCompareAnswersSyncOncePerGroup(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			eng, _ := pairCoreEngine(t, 11, 12, Config{DataDir: t.TempDir(), Shards: shards, WALSync: storage.SyncGroup})
			fsyncs := func() (n int64) {
				for i := 0; i < shards; i++ {
					n += eng.Metrics().Histogram("crowddb_wal_fsync_seconds", "", nil, "shard", fmt.Sprint(i)).Count()
				}
				return n
			}
			syncedBefore, groupsBefore := fsyncs(), eng.Tasks().Stats().GroupsPosted
			res := mustExec(t, eng, "SELECT id FROM Pair WHERE a ~= b")
			synced, groups := fsyncs()-syncedBefore, eng.Tasks().Stats().GroupsPosted-groupsBefore
			if res.Stats.Comparisons < 12 || groups < 2 {
				t.Fatalf("paid %d comparisons in %d groups, want all 12 in several groups", res.Stats.Comparisons, groups)
			}
			if synced > int64(groups*shards) {
				t.Errorf("the statement made %d WAL fsyncs for %d HIT groups on %d shards, want at most %d", synced, groups, shards, groups*shards)
			}
			if stored := storedAnswers(t, eng).Stats().Size; stored != res.Stats.Memoized || stored == 0 {
				t.Errorf("the memo table holds %d answers, the statement stored %d", stored, res.Stats.Memoized)
			}
		})
	}
}

// TestCompareAnswerCommitFailureFailsStatement: when the memo commit of a
// group fails (the WAL is closed), the statement reports the I/O error,
// its pairs stay unanswered, and no flight is left for a follower to hang
// on.
func TestCompareAnswerCommitFailureFailsStatement(t *testing.T) {
	eng, cs := pairCoreEngine(t, 13, 3, Config{DataDir: t.TempDir(), Shards: 1, WALSync: storage.SyncGroup})
	eng.store.Close() // the group's commit syncs to a closed file
	stmt, err := parser.Parse("SELECT id FROM Pair WHERE a ~= b")
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.ExecStmtCtx(context.Background(), stmt, DefaultExecOpts())
	if err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("a CROWDEQUAL statement whose memo commit failed returned %v, want the I/O error", err)
	}
	if res != nil {
		t.Errorf("a failed statement returned %d rows", len(res.Rows))
	}
	if n := eng.Cache().InFlight(); n != 0 {
		t.Errorf("%d flights left after the failed commit", n)
	}
	for _, c := range cs.List {
		if _, ok := eng.Cache().GetEqual("", c.Canonical, c.Variants[len(c.Variants)-1]); ok {
			t.Errorf("pair %q was answered although its commit failed", c.Canonical)
		}
	}
}
