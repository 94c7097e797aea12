package optimizer

// The crowd-aware cost model (paper §3.2.2, taken past the rule-based
// heuristics): every plan node is priced in two crowd dimensions —
// expected monetary spend (cents) and expected human latency (seconds) —
// plus a predicted output cardinality. The per-operator formulas mirror
// what the executor actually pays:
//
//	CrowdProbe   cents = probeRows × the compare price
//	             (probeRows = stored rows surviving the pushed filters
//	             that still hold CNULL in an asked column; a Scan itself
//	             is machine work only)
//	Solicitation cents = wantedTuples × the tuple price
//	CROWDEQUAL   cents = inputRows × calls × (1 − cacheHitRate)
//	             × the compare price
//	CROWDORDER   cents = n × ceil(log2 n) × (1 − cacheHitRate)
//	             × the compare price (the batched quicksort)
//	latency      = crowd rounds × observed group round-trip, with each
//	             phase's groups pipelined through the task manager's
//	             in-flight window
//
// The inputs come from a runtime feedback loop: observed filter
// selectivities and crowd fanouts (catalog), the live comparison-cache
// hit rate, and the task manager's observed group round-trip latency.
// Repeated workloads therefore converge on cheaper plans.

import (
	"math"
	"math/bits"
	"strings"

	"crowddb/internal/parser"
	"crowddb/internal/plan"
	"crowddb/internal/taskmgr"
)

// CostInputs are the live runtime-feedback numbers the cost model prices
// plans with. The engine assembles them per compilation from the task
// manager's price list and observed latency plus the comparison cache's
// hit rate; the zero value normalizes to DefaultCostInputs.
type CostInputs struct {
	// Prices is the task manager's price list for a unit of crowd work
	// (taskmgr.Config.Prices): with a model tier it is the blended
	// model-first rate at the observed escalation rate.
	Prices taskmgr.Prices
	// RoundTripSeconds is the observed (p50) HIT-group round-trip in
	// virtual seconds — the latency of one crowd round.
	RoundTripSeconds float64
	// Window is the async scheduler's in-flight group window.
	Window float64
	// CacheHitRate is the live comparison-cache hit rate in [0,1): the
	// fraction of CROWDEQUAL/CROWDORDER questions answered without pay.
	CacheHitRate float64
}

// latencyCentsPerHour folds crowd latency into money for plan ranking:
// one hour of waiting is "worth" this many cents.
const latencyCentsPerHour = 6

// scanRowsPerSecond is the assumed heap-scan throughput (rows read +
// filtered per second, on the statement's one goroutine) used to price
// machine scan time.
const scanRowsPerSecond = 2e6

// DefaultCostInputs matches the paper's experimental defaults: the
// default task configuration's prices (2¢ HITs, 3-way replication,
// single-candidate solicitations), a 30-minute group round-trip, window
// 8, and a cold cache.
func DefaultCostInputs() CostInputs {
	return CostInputs{
		Prices:           taskmgr.DefaultConfig().Prices(0),
		RoundTripSeconds: 30 * 60,
		Window:           8,
		CacheHitRate:     0,
	}
}

// normalized fills zero fields with defaults and clamps the hit rate so a
// saturated cache never predicts free comparisons.
func (ci CostInputs) normalized() CostInputs {
	def := DefaultCostInputs()
	if ci.Prices.Compare <= 0 {
		ci.Prices.Compare = def.Prices.Compare
	}
	if ci.Prices.Tuple <= 0 {
		ci.Prices.Tuple = def.Prices.Tuple
	}
	if ci.RoundTripSeconds <= 0 {
		ci.RoundTripSeconds = def.RoundTripSeconds
	}
	if ci.Window <= 0 {
		ci.Window = def.Window
	}
	if ci.CacheHitRate < 0 {
		ci.CacheHitRate = 0
	}
	if ci.CacheHitRate > 0.95 {
		ci.CacheHitRate = 0.95
	}
	return ci
}

// Join-order search bounds: past these the chain falls back to greedy.
const (
	dpMaxLeaves    = 8
	dpMaxConjuncts = 32
	// scoreEpsilon is the margin by which a DP plan must beat greedy to
	// replace it: ties keep the deterministic greedy order.
	scoreEpsilon = 1e-9
	// workWeight prices intermediate rows (CPU work) far below any crowd
	// cent, so row savings only ever break money×latency ties.
	workWeight = 1e-6
)

// costModel computes Cost predictions bottom-up, memoized per node.
type costModel struct {
	in   CostInputs
	memo map[plan.Node]plan.Cost
	// work is each subtree's cumulative intermediate rows, kept only when
	// not nil: the join-order search ranks by it, the final pass does not.
	work map[plan.Node]float64
}

// newCostModel returns the join-order search's model, pricing at in.
func newCostModel(in CostInputs) *costModel {
	return &costModel{
		in:   in,
		memo: make(map[plan.Node]plan.Cost),
		work: make(map[plan.Node]float64),
	}
}

// score folds a subtree's prediction into one scalar for plan ranking:
// cents, latency (crowd and machine) at the configured exchange rate,
// and a vanishing weight on intermediate rows as the tie-breaker.
func (cm *costModel) score(n plan.Node) float64 {
	c := cm.cost(n)
	if c.IsUnbounded() {
		return math.Inf(1)
	}
	return c.Cents + (c.Seconds+c.MachineSeconds)*latencyCentsPerHour/3600 + cm.work[n]*workWeight
}

// cost predicts one node's cumulative crowd cost (memoized).
func (cm *costModel) cost(n plan.Node) plan.Cost {
	if c, ok := cm.memo[n]; ok {
		return c
	}
	c := cm.compute(n)
	if c.Rows < 1 && !math.IsInf(c.Rows, 1) {
		c.Rows = 1
	}
	cm.memo[n] = c
	if cm.work != nil {
		w := c.Rows
		for _, ch := range n.Children() {
			w += cm.work[ch]
		}
		cm.work[n] = w
	}
	return c
}

func (cm *costModel) compute(n plan.Node) plan.Cost {
	switch x := n.(type) {
	case *plan.Scan:
		return cm.scanCost(x)
	case *plan.CrowdProbe:
		return cm.crowdProbeCost(x)
	case *plan.Filter:
		return cm.filterCost(x)
	case *plan.Join:
		return cm.joinCost(x)
	case *plan.Project:
		c := cm.cost(x.Input)
		return c
	case *plan.Aggregate:
		c := cm.cost(x.Input)
		c.Rows *= 0.1
		if x.TopKeys != nil && float64(x.TopK) < c.Rows {
			c.Rows = float64(x.TopK)
		}
		return c
	case *plan.Sort:
		return cm.sortCost(x)
	case *plan.Distinct:
		c := cm.cost(x.Input)
		c.Rows *= 0.7
		return c
	case *plan.Limit:
		c := cm.cost(x.Input)
		if x.N >= 0 && float64(x.N) < c.Rows {
			c.Rows = float64(x.N)
		}
		return c
	}
	return plan.Cost{Rows: 1}
}

// storedScanRows estimates the stored rows of s that pass the predicates
// pushed into it and its CrowdProbe (filtered says there is one),
// preferring the observed selectivity over the 1/3 guess.
func (cm *costModel) storedScanRows(s *plan.Scan, filtered bool) float64 {
	stored := float64(s.Table.RowCount())
	if !filtered {
		return stored
	}
	sel := 1.0 / 3
	if obs, ok := s.Table.FilterSelectivity(); ok {
		sel = obs
	}
	// A single-column primary-key equality pins one row regardless.
	for col := range s.ProbeKeys {
		for _, pk := range s.Table.PrimaryKey {
			if len(s.Table.PrimaryKey) == 1 && strings.EqualFold(pk, col) && stored > 0 {
				return 1
			}
		}
	}
	return stored * sel
}

// probeStoredRows estimates the stored rows that reach p's crowd step.
func (cm *costModel) probeStoredRows(p *plan.CrowdProbe) float64 {
	return cm.storedScanRows(p.Scan, p.Scan.Filter != nil || p.Filter != nil)
}

// fanout is the predicted NEW crowd tuples accepted per solicited key
// (stored matches excluded — both executor observations measure
// incremental acceptance).
func (cm *costModel) fanout(s *plan.Scan) float64 {
	if obs, ok := s.Table.CrowdFanout(); ok {
		return obs
	}
	return float64(s.Table.ExpectedCrowdCard())
}

// probeCost prices instantiating p's asked CNULL columns of `rows` stored
// rows: one probe HIT per row still holding a CNULL, capped by the
// catalog's outstanding-CNULL counters.
func (cm *costModel) probeCost(p *plan.CrowdProbe, rows float64) plan.Cost {
	if len(p.AskColumns) == 0 || rows <= 0 {
		return plan.Cost{}
	}
	cnulls, stored := p.Scan.Table.OutstandingCNulls(p.AskColumns)
	outstanding := float64(cnulls)
	probeRows := rows
	if total := float64(stored); total > 0 {
		// Scale outstanding CNULLs by the scanned fraction.
		frac := rows / total
		if frac > 1 {
			frac = 1
		}
		if est := outstanding * frac; est < probeRows {
			probeRows = est
		}
	} else if outstanding < probeRows {
		probeRows = outstanding
	}
	if probeRows <= 0 {
		return plan.Cost{}
	}
	return plan.Cost{
		Cents:   probeRows * cm.in.Prices.Compare,
		Seconds: cm.in.RoundTripSeconds, // one pipelined probe round
	}
}

// solicitCost prices asking the crowd for `want` new tuples.
func (cm *costModel) solicitCost(want float64) plan.Cost {
	if want <= 0 {
		return plan.Cost{}
	}
	return plan.Cost{
		Cents:   want * cm.in.Prices.Tuple,
		Seconds: cm.in.RoundTripSeconds,
	}
}

// machineScanSeconds prices the machine side of a sequential scan: every
// stored row is read and filtered once.
func machineScanSeconds(s *plan.Scan) float64 {
	return float64(max(s.Table.RowCount(), 0)) / scanRowsPerSecond
}

// scanCost prices the machine work of reading stored rows: no cents, and
// the rows its filter and stop-after let through.
func (cm *costModel) scanCost(s *plan.Scan) plan.Cost {
	c := plan.Cost{Rows: cm.storedScanRows(s, s.Filter != nil), MachineSeconds: machineScanSeconds(s)}
	if s.StopAfter >= 0 && float64(s.StopAfter) < c.Rows {
		c.Rows = float64(s.StopAfter)
	}
	return c
}

// crowdProbeCost prices the crowd work over the rows p's scan reads: the
// probes of their CNULLs and, for a CROWD table, the solicitation of new
// tuples — per probe key, or up to the stop-after bound; without either
// the open world makes it unbounded.
func (cm *costModel) crowdProbeCost(p *plan.CrowdProbe) plan.Cost {
	s := p.Scan
	machine := cm.cost(s).MachineSeconds
	stored := cm.probeStoredRows(p)
	// The scan's exact stop-after truncates the read before the crowd is
	// asked: the probe forecast follows.
	if s.StopAfter >= 0 && float64(s.StopAfter) < stored {
		stored = float64(s.StopAfter)
	}
	c := cm.probeCost(p, stored)
	c.MachineSeconds += machine
	c.Rows = stored
	if !s.Table.Crowd {
		return c
	}
	// Open world: solicitation. Execution wants ExpectedCrowdCard matches
	// per probe key (or fills up to the stop-after bound); the predicted
	// yield uses the observed fanout when available.
	execFan := float64(s.Table.ExpectedCrowdCard())
	switch {
	case len(s.ProbeKeys) > 0:
		want := execFan - stored
		c = c.Plus(cm.solicitCost(want))
		c.Rows = stored + cm.fanout(s)
	case p.Solicit >= 0:
		want := float64(p.Solicit) - stored
		c = c.Plus(cm.solicitCost(want))
		c.Rows = stored + math.Max(want, 0)
		if float64(p.Solicit) < c.Rows {
			c.Rows = float64(p.Solicit)
		}
	default:
		return plan.Cost{Cents: math.Inf(1), Seconds: math.Inf(1), Rows: math.Inf(1)}
	}
	return c
}

// countCrowdEqualCalls counts CROWDEQUAL / ~= occurrences in a predicate.
func countCrowdEqualCalls(e parser.Expr) float64 {
	n := 0.0
	parser.WalkExprs(e, func(x parser.Expr) {
		switch v := x.(type) {
		case *parser.BinaryExpr:
			if v.Op == "~=" {
				n++
			}
		case *parser.FuncCall:
			if v.Name == "CROWDEQUAL" {
				n++
			}
		}
	})
	return n
}

func (cm *costModel) filterCost(f *plan.Filter) plan.Cost {
	in := cm.cost(f.Input)
	c := plan.Cost{Cents: in.Cents, Seconds: in.Seconds, MachineSeconds: in.MachineSeconds}
	calls := countCrowdEqualCalls(f.Cond)
	if calls > 0 && !math.IsInf(in.Rows, 1) {
		pairRows := in.Rows
		if f.Pre != nil {
			// Cheap-first phase ordering: only rows surviving the machine
			// predicates reach the crowd.
			pairRows *= 1.0 / 3
		}
		comparisons := pairRows * calls * (1 - cm.in.CacheHitRate)
		if comparisons > 0 {
			c.Cents += comparisons * cm.in.Prices.Compare
			c.Seconds += cm.in.RoundTripSeconds
		}
	}
	c.Rows = in.Rows * (1.0 / 3)
	return c
}

func (cm *costModel) sortCost(s *plan.Sort) plan.Cost {
	in := cm.cost(s.Input)
	c := plan.Cost{Cents: in.Cents, Seconds: in.Seconds, Rows: in.Rows, MachineSeconds: in.MachineSeconds}
	if !s.Crowd() {
		if s.StopAfter >= 0 && float64(s.StopAfter) < c.Rows {
			c.Rows = float64(s.StopAfter)
		}
		return c
	}
	if math.IsInf(in.Rows, 1) || in.Rows < 2 {
		return c
	}
	// Batched quicksort: ~n comparisons per round, ceil(log2 n) rounds;
	// sibling segments pipeline through the in-flight window.
	n := in.Rows
	rounds := math.Ceil(math.Log2(n))
	if rounds < 1 {
		rounds = 1
	}
	comparisons := n * rounds * (1 - cm.in.CacheHitRate)
	c.Cents += comparisons * cm.in.Prices.Compare
	groupsPerRound := math.Max(1, math.Ceil(n/math.Max(cm.in.Window, 1)/8))
	c.Seconds += rounds * groupsPerRound * cm.in.RoundTripSeconds
	return c
}

func (cm *costModel) joinCost(j *plan.Join) plan.Cost {
	l := cm.cost(j.Left)
	r := cm.cost(j.Right)
	sel := 1.0
	if j.On != nil {
		sel = 0.1
	}

	// CrowdJoin (§3.2.1): an inner crowd probe bound by the join
	// condition is solicited per distinct outer key rather than
	// enumerated, so its standalone infinity does not apply.
	if !l.IsUnbounded() {
		if p, _, _, _, ok := j.CrowdJoin(); ok {
			s := p.Scan
			storedInner := cm.probeStoredRows(p)
			c := plan.Cost{Cents: l.Cents, Seconds: l.Seconds,
				MachineSeconds: l.MachineSeconds + machineScanSeconds(s)}
			c = c.Plus(cm.probeCost(p, storedInner))
			keys := l.Rows
			execFan := float64(s.Table.ExpectedCrowdCard())
			storedPerKey := 0.0
			if keys > 0 {
				storedPerKey = storedInner / keys
			}
			want := keys * math.Max(0, execFan-storedPerKey)
			c = c.Plus(cm.solicitCost(want))
			c.Rows = keys * (storedPerKey + cm.fanout(s))
			return c
		}
	}

	c := plan.Cost{Cents: l.Cents + r.Cents, Seconds: l.Seconds + r.Seconds,
		MachineSeconds: l.MachineSeconds + r.MachineSeconds}
	c.Rows = l.Rows * r.Rows * sel
	return c
}

// ---------------------------------------------------------------------------
// Bounded DP join-order enumeration

// dpState is the best left-deep plan found for one leaf subset.
type dpState struct {
	node  plan.Node
	used  uint64 // conjunct bitmask folded into ON conditions so far
	score float64
	// crosses records cross products in build order (for warnings).
	crosses []crossPair
}

// buildDP enumerates left-deep join orders over the chain's leaves,
// pricing each candidate with the cost model, and returns the cheapest
// complete plan. It reports ok=false when every complete order is
// unbounded (the caller then keeps greedy).
func (o *optimizer) buildDP(cm *costModel, leaves []plan.Node, conjuncts []parser.Expr) (plan.Node, []crossPair, bool) {
	n := len(leaves)
	states := make([]*dpState, 1<<n)
	for i := 0; i < n; i++ {
		states[1<<i] = &dpState{node: leaves[i], score: cm.score(leaves[i])}
	}
	for mask := 1; mask < 1<<n; mask++ {
		if states[mask] == nil || bits.OnesCount(uint(mask)) == n {
			continue
		}
		parent := states[mask]
		for j := 0; j < n; j++ {
			if mask&(1<<j) != 0 {
				continue
			}
			leaf := leaves[j]
			joint := append(append([]plan.Col{}, parent.node.Schema()...), leaf.Schema()...)
			var on parser.Expr
			used := parent.used
			for ci, conj := range conjuncts {
				if used&(1<<uint(ci)) != 0 {
					continue
				}
				if plan.CoveredBy(conj, joint) {
					on = parser.And(on, conj)
					used |= 1 << uint(ci)
				}
			}
			jt := parser.JoinInner
			if on == nil {
				jt = parser.JoinCross
			}
			cand := &plan.Join{Left: parent.node, Right: leaf, Type: jt, On: on}
			score := cm.score(cand)
			next := mask | 1<<j
			if cur := states[next]; cur == nil || score < cur.score-scoreEpsilon {
				crosses := parent.crosses
				if on == nil {
					crosses = append(append([]crossPair{}, parent.crosses...), crossPair{left: parent.node, right: leaf})
				}
				states[next] = &dpState{node: cand, used: used, score: score, crosses: crosses}
			}
		}
	}
	best := states[1<<n-1]
	if best == nil || math.IsInf(best.score, 1) {
		return nil, nil, false
	}
	return best.node, best.crosses, true
}

// ---------------------------------------------------------------------------
// Cost-based crowd-filter phase ordering

// orderFilterPhases splits every crowd filter's condition into a cheap
// (crowd-free) phase and the crowd phase, recording the cheap conjuncts
// on the Filter node: the executor prunes with them BEFORE paying for any
// crowd comparison. Classic expensive-predicate ordering, with CROWDEQUAL
// as the expensive predicate.
func (o *optimizer) orderFilterPhases(n plan.Node) {
	if f, ok := n.(*plan.Filter); ok && parser.HasCrowdFunc(f.Cond) {
		var cheap []parser.Expr
		crowd := false
		for _, conj := range parser.SplitConjuncts(f.Cond) {
			if parser.HasCrowdFunc(conj) {
				crowd = true
			} else {
				cheap = append(cheap, conj)
			}
		}
		if crowd && len(cheap) > 0 {
			f.Pre = joinConjuncts(cheap)
		}
	}
	for _, c := range n.Children() {
		o.orderFilterPhases(c)
	}
}
