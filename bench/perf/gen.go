package main

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"crowddb/internal/core"
	"crowddb/internal/crowd"
	"crowddb/internal/sqltypes"
	"crowddb/internal/taskmgr"
	"crowddb/pkg/client"
)

// numClients is the closed-loop client count: one per core of the
// 2-core reference box (GOMAXPROCS is pinned to the same number).
const numClients = 2

// stmt is one generated statement with what the generator knows its
// output must be. The system under test only ever sees sql.
type stmt struct {
	sql   string
	class int // index into workload.classes()
	// Expectations; a negative count is unchecked.
	rows     int
	affected int
	exact    [][]string // expected full ordered result, when non-nil
	arg      int        // the crowd group or scan threshold the statement is about
}

// outcome is what the client saw for one statement.
type outcome struct {
	state    string
	affected int
	scanned  int // rows the executor examined, from the job resource
	rows     []client.Row
}

// workload is one traffic mix: schema, preload, a deterministic statement
// stream per client and round, and the oracle that says whether an
// output is right.
type workload interface {
	name() string
	// classes names the statement classes; per-class medians keep the
	// traced stages comparable.
	classes() []string
	// durable workloads run on a data directory with the jobs journal on.
	durable() bool
	ddl() []string
	// preload returns the INSERT scripts that fill the tables.
	preload() []string
	// prepare runs unmeasured, setup-time statements through the clients
	// (the cold crowd pass of crowd_hot); most workloads have none.
	prepare(ctx context.Context, clients []*client.Client) error
	// round returns the statements client c runs in round r, or nil when
	// the workload's data is exhausted.
	round(c, r int) []stmt
	// check reports whether out is a correct answer to st.
	check(st *stmt, out *outcome) bool
	// score counts crowd-decided cells/rows in out and how many of them
	// equal the oracle's truth (machine workloads report 0, 0).
	score(st *stmt, out *outcome) (decided, right int)
	// probeTable and probeSQL feed the per-layer probes: the table whose
	// rows a benchmark-owned store is loaded with, and machine-only
	// SELECTs over it.
	probeTable() string
	probeSQL() []string
	// verify runs after the stack is closed (durable reopen check).
	verify(dir string, seed int64) (recoverSeconds float64, err error)
}

// refSeconds is the --seconds value the per-round statement counts below
// were frozen at: with it, the measured phase takes about that long at
// the commit that introduced the benchmark, on the 2-core reference box.
const refSeconds = 10

// sizes scales every workload. Work is fixed, not time-boxed: a run is
// measuredRounds rounds of a statement count that depends only on
// --seconds, so table growth, log bytes, crowd consumption and sample
// counts are identical on every commit. Smoke runs at 1/50.
type sizes struct {
	div     int
	seconds float64
}

// of scales a data size (rows, groups) or a probe's iteration count.
func (s sizes) of(n int) int { return max(n/s.div, 1) }

// burst is the length of one calibration burst.
func (s sizes) burst() time.Duration {
	return max(calibBurstDur/time.Duration(s.div), 2*time.Millisecond)
}

// perRound scales a per-client, per-round statement count frozen at
// refSeconds to the requested --seconds.
func (s sizes) perRound(atRef int) int {
	return max(int(float64(atRef)*s.seconds/refSeconds)/s.div, 1)
}

var workloadNames = []string{"point_read", "scan_read", "durable_write", "crowd_cold", "crowd_hot"}

func newWorkload(name string, seed int64, sz sizes) (workload, error) {
	switch name {
	case "point_read":
		return newTalkWorkload(seed, sz, false), nil
	case "scan_read":
		return newTalkWorkload(seed, sz, true), nil
	case "durable_write":
		return newKVWorkload(seed, sz), nil
	case "crowd_cold":
		return newCrowdWorkload(seed, sz, false), nil
	case "crowd_hot":
		return newCrowdWorkload(seed, sz, true), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// roundRNG is the deterministic source for one client's round.
func roundRNG(seed int64, c, r int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(c)*7919 + int64(r)*104_729 + 17))
}

// classSequence returns n class indexes with counts fixed by weights
// (largest remainder), shuffled by rng: the mix is identical for every
// seed, only the order differs.
func classSequence(rng *rand.Rand, n int, weights []int) []int {
	total := 0
	for _, w := range weights {
		total += w
	}
	seq := make([]int, 0, n)
	for ci, w := range weights {
		k := n * w / total
		for i := 0; i < k; i++ {
			seq = append(seq, ci)
		}
	}
	for ci := 0; len(seq) < n; ci = (ci + 1) % len(weights) {
		seq = append(seq, ci)
	}
	rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return seq
}

const insertBatch = 500

// insertScripts renders rows as multi-row INSERT statements; target is a
// table name, optionally followed by a column list.
func insertScripts(target string, rows []string) []string {
	var out []string
	for len(rows) > 0 {
		n := min(insertBatch, len(rows))
		out = append(out, "INSERT INTO "+target+" VALUES "+strings.Join(rows[:n], ", "))
		rows = rows[n:]
	}
	return out
}

// defaults supplies the hooks most workloads do not need.
type defaults struct{}

func (defaults) prepare(context.Context, []*client.Client) error { return nil }
func (defaults) score(*stmt, *outcome) (int, int)                { return 0, 0 }
func (defaults) verify(string, int64) (float64, error)           { return 0, nil }

// ---------------------------------------------------------------------------
// point_read and scan_read: the in-memory Talk table.

const (
	talkRowsFull  = 20000
	talkPerRoom   = 8
	talkNbModulus = 1000
	// scan_read thresholds scanThresholdMin..+scanThresholds-1 keep 3–7 %
	// of the table above them.
	scanThresholdMin = 930
	scanThresholds   = 40
)

type talkWorkload struct {
	defaults
	seed  int64
	scan  bool
	nrows int
	per   int     // statements per client per round
	perm  [][]int // per client: seeded key permutation

	// scan_read's GROUP BY check: every room's nb_attendees values, and
	// for each threshold the group with the highest average.
	roomVals  [][]int
	bestBelow [scanThresholds]roomGroup
}

func newTalkWorkload(seed int64, sz sizes, scan bool) *talkWorkload {
	w := &talkWorkload{seed: seed, scan: scan}
	// nrows stays a multiple of both the room size and the nb modulus so
	// every analytic count below is exact.
	w.nrows = max(sz.of(talkRowsFull)/talkNbModulus, 1) * talkNbModulus
	if scan {
		w.per = max(sz.perRound(60), 3) // at least one of each class
	} else {
		w.per = sz.perRound(1300)
	}
	for c := 0; c < numClients; c++ {
		w.perm = append(w.perm, rand.New(rand.NewSource(seed*31+int64(c))).Perm(w.nrows))
	}
	if scan {
		w.roomVals = make([][]int, w.rooms())
		for i := 0; i < w.nrows; i++ {
			w.roomVals[i%w.rooms()] = append(w.roomVals[i%w.rooms()], talkNb(i))
		}
		for t := range w.bestBelow {
			best := roomGroup{n: 1}
			for room := range w.roomVals {
				if g := w.groupBelow(room, scanThresholdMin+t); g.sum*best.n > best.sum*g.n {
					best = g
				}
			}
			w.bestBelow[t] = best
		}
	}
	return w
}

// roomGroup is one GROUP BY room group under a nb_attendees < x filter.
type roomGroup struct{ n, sum int }

// groupBelow computes a room's group from the generator's own formulas.
func (w *talkWorkload) groupBelow(room, x int) roomGroup {
	var g roomGroup
	for _, nb := range w.roomVals[room] {
		if nb < x {
			g.n++
			g.sum += nb
		}
	}
	return g
}

func talkTitle(i int) string { return fmt.Sprintf("talk-%05d", i) }
func talkNb(i int) int       { return (i*7919 + 13) % talkNbModulus }
func (w *talkWorkload) rooms() int {
	return w.nrows / talkPerRoom
}
func (w *talkWorkload) room(i int) string { return fmt.Sprintf("room-%04d", i%w.rooms()) }

func (w *talkWorkload) name() string {
	if w.scan {
		return "scan_read"
	}
	return "point_read"
}

func (w *talkWorkload) classes() []string {
	if w.scan {
		return []string{"filter", "group", "topk"}
	}
	return []string{"pk", "index"}
}

func (w *talkWorkload) durable() bool { return false }

func (w *talkWorkload) ddl() []string {
	return []string{
		"CREATE TABLE Talk (title STRING PRIMARY KEY, room STRING, nb_attendees INTEGER)",
		"CREATE INDEX talk_room ON Talk (room)",
	}
}

func (w *talkWorkload) preload() []string {
	rows := make([]string, w.nrows)
	for i := range rows {
		rows[i] = fmt.Sprintf("('%s', '%s', %d)", talkTitle(i), w.room(i), talkNb(i))
	}
	return insertScripts("Talk", rows)
}

func (w *talkWorkload) round(c, r int) []stmt {
	rng := roundRNG(w.seed, c, r)
	keys := w.perm[c]
	key := func(i int) int { return keys[(r*w.per+i)%len(keys)] }
	out := make([]stmt, w.per)
	if !w.scan {
		for i, cl := range classSequence(rng, w.per, []int{4, 1}) {
			k := key(i)
			if cl == 0 {
				out[i] = stmt{
					sql:   "SELECT nb_attendees FROM Talk WHERE title = '" + talkTitle(k) + "'",
					class: 0, rows: -1, affected: -1, exact: [][]string{{strconv.Itoa(talkNb(k))}},
				}
			} else {
				out[i] = stmt{
					sql:   "SELECT title FROM Talk WHERE room = '" + w.room(k) + "'",
					class: 1, rows: talkPerRoom, affected: -1,
				}
			}
		}
		return out
	}
	perValue := w.nrows / talkNbModulus // rows sharing one nb_attendees value
	for i, cl := range classSequence(rng, w.per, []int{1, 1, 1}) {
		x := scanThresholdMin + key(i)%scanThresholds
		matching := perValue * (talkNbModulus - 1 - x)
		switch cl {
		case 0:
			out[i] = stmt{
				sql:   fmt.Sprintf("SELECT title, nb_attendees FROM Talk WHERE nb_attendees > %d", x),
				class: 0, rows: matching, affected: -1,
			}
		case 1:
			out[i] = stmt{
				sql:   fmt.Sprintf("SELECT room, COUNT(*), AVG(nb_attendees) FROM Talk WHERE nb_attendees < %d GROUP BY room ORDER BY AVG(nb_attendees) DESC LIMIT 10", x),
				class: 1, rows: 10, affected: -1, arg: x,
			}
		default:
			out[i] = stmt{
				sql:   fmt.Sprintf("SELECT title, nb_attendees FROM Talk WHERE nb_attendees > %d ORDER BY nb_attendees DESC LIMIT 10", x),
				class: 2, rows: min(10, matching), affected: -1,
			}
		}
	}
	return out
}

func (w *talkWorkload) check(st *stmt, out *outcome) bool {
	if !checkCommon(st, out) {
		return false
	}
	if !w.scan {
		return true
	}
	switch st.class {
	case 1:
		// Ties make the winning room ambiguous and AVG's rendering is the
		// engine's business, so check what is neither: the returned top
		// room must be one whose average is the maximum, with its count.
		room, err := strconv.Atoi(strings.TrimPrefix(out.rows[0].Cell(0), "room-"))
		if err != nil || room < 0 || room >= len(w.roomVals) {
			return false
		}
		g, best := w.groupBelow(room, st.arg), w.bestBelow[st.arg-scanThresholdMin]
		return g.sum*best.n == best.sum*g.n && out.rows[0].Cell(1) == strconv.Itoa(g.n)
	case 2:
		return len(out.rows) > 0 && out.rows[0].Cell(1) == strconv.Itoa(talkNbModulus-1)
	}
	return true
}

func (w *talkWorkload) probeTable() string { return "Talk" }

func (w *talkWorkload) probeSQL() []string {
	if w.scan {
		return []string{
			"SELECT title, nb_attendees FROM Talk WHERE nb_attendees > 950",
			"SELECT room, COUNT(*), AVG(nb_attendees) FROM Talk WHERE nb_attendees < 950 GROUP BY room ORDER BY AVG(nb_attendees) DESC LIMIT 10",
			"SELECT title, nb_attendees FROM Talk WHERE nb_attendees > 950 ORDER BY nb_attendees DESC LIMIT 10",
		}
	}
	return []string{
		"SELECT nb_attendees FROM Talk WHERE title = '" + talkTitle(w.nrows/2) + "'",
		"SELECT title FROM Talk WHERE room = '" + w.room(7) + "'",
	}
}

// checkCommon applies the expectations every workload shares.
func checkCommon(st *stmt, out *outcome) bool {
	if out.state != "done" {
		return false
	}
	if st.rows >= 0 && len(out.rows) != st.rows {
		return false
	}
	if st.affected >= 0 && out.affected != st.affected {
		return false
	}
	if st.exact != nil {
		if len(out.rows) != len(st.exact) {
			return false
		}
		for i, want := range st.exact {
			if !rowEquals(out.rows[i], want) {
				return false
			}
		}
	}
	return true
}

func rowEquals(row client.Row, want []string) bool {
	if len(row) != len(want) {
		return false
	}
	for i, w := range want {
		if row.Cell(i) != w {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// durable_write: kv on a data directory, reads beside writes.

const kvClientStride = 10_000_000

type kvRow struct {
	v string
	n int
}

// kvClient is the generator's model of one client's key range: it is
// advanced at generation time, so every SELECT knows what the client's
// own earlier writes must have left behind.
type kvClient struct {
	next   int
	live   []int // ids, insertion-ordered (deleted ones swapped out)
	rows   map[int]kvRow
	rounds int // rounds generated so far (rounds are generated in order)
}

type kvWorkload struct {
	defaults
	seed    int64
	per     int
	preRows int
	clients []*kvClient
}

func newKVWorkload(seed int64, sz sizes) *kvWorkload {
	w := &kvWorkload{seed: seed, per: sz.perRound(450), preRows: sz.of(2000)}
	for c := 0; c < numClients; c++ {
		kc := &kvClient{rows: make(map[int]kvRow)}
		for k := 0; k < w.preRows; k++ {
			id := c*kvClientStride + k
			kc.live = append(kc.live, id)
			kc.rows[id] = kvRow{v: fmt.Sprintf("v%d.0", id), n: id % 1000}
		}
		kc.next = c*kvClientStride + w.preRows
		w.clients = append(w.clients, kc)
	}
	return w
}

func (w *kvWorkload) name() string      { return "durable_write" }
func (w *kvWorkload) classes() []string { return []string{"insert", "update", "delete", "select"} }
func (w *kvWorkload) durable() bool     { return true }

func (w *kvWorkload) ddl() []string {
	return []string{"CREATE TABLE kv (id INTEGER PRIMARY KEY, v STRING, n INTEGER)"}
}

func (w *kvWorkload) preload() []string {
	var rows []string
	for c := 0; c < numClients; c++ {
		for k := 0; k < w.preRows; k++ {
			id := c*kvClientStride + k
			rows = append(rows, fmt.Sprintf("(%d, 'v%d.0', %d)", id, id, id%1000))
		}
	}
	return insertScripts("kv", rows)
}

func (w *kvWorkload) round(c, r int) []stmt {
	kc := w.clients[c]
	if r != kc.rounds {
		panic(fmt.Sprintf("durable_write: round %d generated out of order (have %d)", r, kc.rounds))
	}
	kc.rounds++
	rng := roundRNG(w.seed, c, r)
	out := make([]stmt, w.per)
	for i, cl := range classSequence(rng, w.per, []int{14, 1, 1, 4}) {
		switch cl {
		case 0:
			id := kc.next
			kc.next++
			row := kvRow{v: fmt.Sprintf("v%d.0", id), n: id % 1000}
			kc.live = append(kc.live, id)
			kc.rows[id] = row
			out[i] = stmt{
				sql:   fmt.Sprintf("INSERT INTO kv VALUES (%d, '%s', %d)", id, row.v, row.n),
				class: 0, rows: 0, affected: 1,
			}
		case 1:
			id := kc.live[rng.Intn(len(kc.live))]
			row := kc.rows[id]
			row.n++
			row.v = fmt.Sprintf("v%d.%d", id, row.n)
			kc.rows[id] = row
			out[i] = stmt{
				sql:   fmt.Sprintf("UPDATE kv SET v = '%s', n = %d WHERE id = %d", row.v, row.n, id),
				class: 1, rows: 0, affected: 1,
			}
		case 2:
			k := rng.Intn(len(kc.live))
			id := kc.live[k]
			kc.live[k] = kc.live[len(kc.live)-1]
			kc.live = kc.live[:len(kc.live)-1]
			delete(kc.rows, id)
			out[i] = stmt{
				sql:   fmt.Sprintf("DELETE FROM kv WHERE id = %d", id),
				class: 2, rows: 0, affected: 1,
			}
		default:
			// Half the reads chase the client's most recent writes.
			k := rng.Intn(len(kc.live))
			if rng.Intn(2) == 0 {
				k = len(kc.live) - 1 - rng.Intn(min(16, len(kc.live)))
			}
			id := kc.live[k]
			row := kc.rows[id]
			out[i] = stmt{
				sql:   fmt.Sprintf("SELECT v, n FROM kv WHERE id = %d", id),
				class: 3, rows: -1, affected: -1, exact: [][]string{{row.v, strconv.Itoa(row.n)}},
			}
		}
	}
	return out
}

func (w *kvWorkload) check(st *stmt, out *outcome) bool { return checkCommon(st, out) }
func (w *kvWorkload) probeTable() string                { return "kv" }

func (w *kvWorkload) probeSQL() []string {
	return []string{fmt.Sprintf("SELECT v, n FROM kv WHERE id = %d", w.preRows/2)}
}

// verify reopens the data directory the way a restarted daemon would and
// compares the recovered live row set with the generator's model:
// preload + inserts − deletes, with every update applied. It returns how
// long recovery took.
func (w *kvWorkload) verify(dir string, seed int64) (float64, error) {
	start := time.Now()
	eng, err := core.Open(engineConfig(seed, dir, nil))
	if err != nil {
		return 0, fmt.Errorf("durable_write: reopen: %w", err)
	}
	recoverSeconds := time.Since(start).Seconds()
	defer eng.Close()
	res, err := eng.Exec("SELECT id, v, n FROM kv")
	if err != nil {
		return 0, fmt.Errorf("durable_write: reopen scan: %w", err)
	}
	want := 0
	for _, kc := range w.clients {
		want += len(kc.rows)
	}
	if len(res.Rows) != want {
		return 0, fmt.Errorf("durable_write: recovered %d rows, generator model has %d", len(res.Rows), want)
	}
	for _, row := range res.Rows {
		id := int(row[0].Int())
		model, ok := w.clients[id/kvClientStride].rows[id]
		if !ok {
			return 0, fmt.Errorf("durable_write: row %d resurrected after reopen", id)
		}
		if row[1].Str() != model.v || int(row[2].Int()) != model.n {
			return 0, fmt.Errorf("durable_write: row %d recovered as (%s, %d), want (%s, %d)",
				id, row[1].Str(), row[2].Int(), model.v, model.n)
		}
	}
	return recoverSeconds, nil
}

// ---------------------------------------------------------------------------
// crowd_cold and crowd_hot: CROWDEQUAL, CROWDORDER and CrowdProbe.

const (
	pairsPerGroup = 6
	itemsPerGroup = 5
	orderQuestion = "Which item is better?"
)

const (
	kindEqual = iota
	kindOrder
	kindProbe
)

type crowdWorkload struct {
	defaults
	seed   int64
	hot    bool
	groups int
	per    int
	// order is, per client and statement kind, the client's groups in a
	// seeded order; cold runs walk each list once, hot runs cycle them.
	order [][3][]int
	// hotRows is what the converged setup pass returned per statement.
	hotRows map[string][][]string
}

// kindsPerRound is how many statements of the most frequent kind one
// client runs per round (classSequence hands the remainder of an uneven
// split to the first kinds).
func kindsPerRound(per int) int { return (per + 2) / 3 }

func newCrowdWorkload(seed int64, sz sizes, hot bool) *crowdWorkload {
	w := &crowdWorkload{seed: seed, hot: hot}
	if hot {
		w.groups, w.per = max(sz.of(40), numClients), sz.perRound(1100)
	} else {
		// Enough groups for every (group, kind) to run at most once over
		// the warm-up and the measured rounds.
		w.per = sz.perRound(110)
		w.groups = numClients * kindsPerRound(w.per) * (measuredRounds + 1)
	}
	for c := 0; c < numClients; c++ {
		var mine []int
		for g := c; g < w.groups; g += numClients {
			mine = append(mine, g)
		}
		var lists [3][]int
		for k := range lists {
			rng := rand.New(rand.NewSource(seed*131 + int64(c)*3 + int64(k)))
			lists[k] = append([]int(nil), mine...)
			rng.Shuffle(len(mine), func(i, j int) { lists[k][i], lists[k][j] = lists[k][j], lists[k][i] })
		}
		w.order = append(w.order, lists)
	}
	return w
}

func (w *crowdWorkload) name() string {
	if w.hot {
		return "crowd_hot"
	}
	return "crowd_cold"
}

func (w *crowdWorkload) classes() []string { return []string{"crowdequal", "crowdorder", "crowdprobe"} }
func (w *crowdWorkload) durable() bool     { return false }

func (w *crowdWorkload) ddl() []string {
	return []string{
		"CREATE TABLE Pair (id INTEGER PRIMARY KEY, grp INTEGER, a STRING, b STRING)",
		"CREATE INDEX pair_grp ON Pair (grp)",
		"CREATE TABLE Item (name STRING PRIMARY KEY, grp INTEGER, headcount CROWD INTEGER)",
		"CREATE INDEX item_grp ON Item (grp)",
	}
}

func (w *crowdWorkload) preload() []string {
	var pairs, items []string
	for g := 0; g < w.groups; g++ {
		for j := 0; j < pairsPerGroup; j++ {
			a, b := pairStrings(g, j)
			pairs = append(pairs, fmt.Sprintf("(%d, %d, '%s', '%s')", g*pairsPerGroup+j, g, a, b))
		}
		for j := 0; j < itemsPerGroup; j++ {
			items = append(items, fmt.Sprintf("('%s', %d)", itemName(g, j), g))
		}
	}
	return append(insertScripts("Pair", pairs), insertScripts("Item (name, grp)", items)...)
}

func (w *crowdWorkload) sqlFor(g, kind int) string {
	switch kind {
	case kindEqual:
		return fmt.Sprintf("SELECT id FROM Pair WHERE grp = %d AND a ~= b", g)
	case kindOrder:
		return fmt.Sprintf("SELECT name FROM Item WHERE grp = %d ORDER BY CROWDORDER(name, '%s')", g, orderQuestion)
	default:
		return fmt.Sprintf("SELECT name, headcount FROM Item WHERE grp = %d", g)
	}
}

// prepare is crowd_hot's cold pass: every statement runs until a pass
// posts no new HIT group (a probe that missed quorum is re-asked), at
// most three times, and the converged rows become the expected output.
func (w *crowdWorkload) prepare(ctx context.Context, cs []*client.Client) error {
	if !w.hot {
		return nil
	}
	w.hotRows = make(map[string][][]string)
	type passResult struct {
		rows  map[string][][]string
		spent float64
		err   error
	}
	for pass := 0; pass < 3; pass++ {
		results := make(chan passResult, len(cs))
		for c, cl := range cs {
			go func() {
				res := passResult{rows: make(map[string][][]string)}
				for i := 0; i < 3*len(w.order[c][0]); i++ {
					kind := i % 3
					sql := w.sqlFor(w.order[c][kind][i/3], kind)
					q, err := cl.Query(ctx, sql)
					if err != nil {
						res.err = fmt.Errorf("crowd_hot cold pass: %s: %w", sql, err)
						break
					}
					res.spent += q.Status.SpentCents
					got := make([][]string, len(q.Rows))
					for i, r := range q.Rows {
						got[i] = make([]string, len(r))
						for k := range r {
							got[i][k] = r.Cell(k)
						}
					}
					res.rows[sql] = got
				}
				results <- res
			}()
		}
		spent := 0.0
		var firstErr error
		for range cs {
			res := <-results
			if res.err != nil && firstErr == nil {
				firstErr = res.err
			}
			spent += res.spent
			for k, v := range res.rows {
				w.hotRows[k] = v
			}
		}
		if firstErr != nil {
			return firstErr
		}
		if spent == 0 {
			break
		}
	}
	return nil
}

func (w *crowdWorkload) round(c, r int) []stmt {
	lists := w.order[c]
	seq := classSequence(roundRNG(w.seed, c, r), w.per, []int{1, 1, 1})
	var used [3]int // statements of each kind in earlier rounds
	for _, kind := range seq {
		used[kind]++
	}
	for kind := range used {
		used[kind] *= r // every round has the same kind counts
	}
	out := make([]stmt, 0, w.per)
	for _, kind := range seq {
		pos := used[kind]
		used[kind]++
		if !w.hot && pos >= len(lists[kind]) {
			return nil // every (group, kind) runs at most once
		}
		g := lists[kind][pos%len(lists[kind])]
		st := stmt{sql: w.sqlFor(g, kind), class: kind, rows: -1, affected: -1, arg: g}
		switch {
		case w.hot:
			st.exact = w.hotRows[st.sql]
			if st.exact == nil {
				st.exact = [][]string{}
			}
		case kind != kindEqual:
			st.rows = itemsPerGroup
		}
		out = append(out, st)
	}
	return out
}

func (w *crowdWorkload) check(st *stmt, out *outcome) bool { return checkCommon(st, out) }

// score compares the crowd-decided part of a result with the truth the
// oracle hands the simulated workers.
func (w *crowdWorkload) score(st *stmt, out *outcome) (decided, right int) {
	switch st.class {
	case kindEqual:
		returned := make(map[int]bool)
		for _, row := range out.rows {
			id, err := strconv.Atoi(row.Cell(0))
			if err == nil {
				returned[id] = true
			}
		}
		for j := 0; j < pairsPerGroup; j++ {
			if returned[st.arg*pairsPerGroup+j] == pairSame(st.arg, j) {
				right++
			}
		}
		return pairsPerGroup, right
	case kindOrder:
		// Pairwise concordance with the hidden scores.
		var scores []int
		for _, row := range out.rows {
			s, ok := itemScore(row.Cell(0))
			if !ok {
				return itemsPerGroup * (itemsPerGroup - 1) / 2, 0
			}
			scores = append(scores, s)
		}
		for i := range scores {
			for j := i + 1; j < len(scores); j++ {
				decided++
				if scores[i] > scores[j] {
					right++
				}
			}
		}
		return decided, right
	default:
		for _, row := range out.rows {
			decided++
			if g, j, ok := itemParts(row.Cell(0)); ok && row.Cell(1) == strconv.Itoa(itemHeadcount(g, j)) {
				right++
			}
		}
		return decided, right
	}
}

func (w *crowdWorkload) probeTable() string { return "Item" }

func (w *crowdWorkload) probeSQL() []string {
	return []string{
		fmt.Sprintf("SELECT name FROM Item WHERE grp = %d", w.groups/2),
		fmt.Sprintf("SELECT id, a, b FROM Pair WHERE grp = %d", w.groups/2),
	}
}

// ---------------------------------------------------------------------------
// The benchmark-owned oracle. Every string the crowd is asked about
// carries its entity id or hidden score, so truth is O(1) to compute.
// (workload.Companies.CanonicalOf walks its whole list per lookup and
// would dominate the crowd workloads' profile.)

var companyWords = []string{"Acme", "Globex", "Initech", "Umbrella", "Hooli", "Stark", "Wayne", "Wonka"}

// pairSame says whether pair j of group g names one entity twice.
func pairSame(g, j int) bool { return (g*7+j*3)%2 == 0 }

// pairStrings renders the two surface forms of pair j of group g. The
// entity id follows '#'.
func pairStrings(g, j int) (a, b string) {
	word := companyWords[(g+j)%len(companyWords)]
	left := g*100 + j*2
	right := left
	if !pairSame(g, j) {
		right = left + 1
	}
	return fmt.Sprintf("%s Corp #%d", word, left), fmt.Sprintf("%s Corporation #%d", word, right)
}

func entityID(s string) (int, bool) {
	i := strings.LastIndexByte(s, '#')
	if i < 0 {
		return 0, false
	}
	n, err := strconv.Atoi(s[i+1:])
	return n, err == nil
}

// itemName embeds the group, the index and the hidden preference score.
func itemName(g, j int) string {
	return fmt.Sprintf("item-g%d-i%d-s%d", g, j, (j*3+g)%itemsPerGroup)
}

func itemParts(name string) (g, j int, ok bool) {
	var s int
	_, err := fmt.Sscanf(name, "item-g%d-i%d-s%d", &g, &j, &s)
	return g, j, err == nil
}

func itemScore(name string) (int, bool) {
	i := strings.LastIndex(name, "-s")
	if i < 0 {
		return 0, false
	}
	n, err := strconv.Atoi(name[i+2:])
	return n, err == nil
}

func itemHeadcount(g, j int) int { return (g*31+j*7)%500 + 10 }

// benchOracle implements taskmgr.Oracle for the crowd workloads.
type benchOracle struct{}

var _ taskmgr.Oracle = benchOracle{}

func (benchOracle) ProbeTruth(table string, known map[string]sqltypes.Value, ask []string) *crowd.SimTruth {
	g, j, ok := itemParts(known["name"].Str())
	if !ok || !strings.EqualFold(table, "Item") {
		return nil
	}
	truth := make(map[string]string, len(ask))
	wrong := make(map[string][]string, len(ask))
	for _, col := range ask {
		if strings.EqualFold(col, "headcount") {
			n := itemHeadcount(g, j)
			truth[col] = strconv.Itoa(n)
			wrong[col] = []string{strconv.Itoa(n + 9), strconv.Itoa(n + 17)}
		}
	}
	return &crowd.SimTruth{Truth: truth, Wrong: wrong, Difficulty: 0.1}
}

func (benchOracle) NewTupleTruth(string, map[string]sqltypes.Value, int) *crowd.SimTruth {
	return nil // no workload solicits new tuples
}

func (benchOracle) CompareTruth(kind crowd.TaskKind, _, left, right string) *crowd.SimTruth {
	if kind == crowd.TaskCompareEqual {
		l, lok := entityID(left)
		r, rok := entityID(right)
		ans := "no"
		if lok && rok && l == r {
			ans = "yes"
		}
		return &crowd.SimTruth{Truth: map[string]string{"answer": ans}, Difficulty: 0.15}
	}
	ls, lok := itemScore(left)
	rs, rok := itemScore(right)
	if !lok || !rok {
		return &crowd.SimTruth{Difficulty: 1}
	}
	win := left
	if rs > ls {
		win = right
	}
	return &crowd.SimTruth{Truth: map[string]string{"answer": win}, Difficulty: 0.15}
}
