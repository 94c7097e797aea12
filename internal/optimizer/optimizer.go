// Package optimizer implements CrowdDB's rule-based query optimizer
// (paper §3.2.2): predicate push-down, stop-after push-down, join
// ordering, and the open-world boundedness analysis that "ensur[es] that
// the amount of data requested from the crowd is bounded", warning at
// compile time when the number of crowd requests cannot be bounded. The
// cost model (cost.go) annotates the plan with the cardinality, cents and
// latency predictions EXPLAIN prints.
package optimizer

import (
	"fmt"
	"math"
	"strings"

	"crowddb/internal/catalog"
	"crowddb/internal/parser"
	"crowddb/internal/plan"
)

// Options control optimization.
type Options struct {
	// AllowUnbounded downgrades the unbounded-crowd-request error to a
	// warning; execution then uses stored data only for unbounded scans.
	AllowUnbounded bool
	// DisablePushdown, DisableStopAfter and DisableJoinReorder switch off
	// individual rules (the ablation benchmarks use these).
	DisablePushdown    bool
	DisableStopAfter   bool
	DisableJoinReorder bool
	// DisableCostBased turns off the crowd-aware cost-based optimizations
	// (DP join-order search, cheap-first crowd-filter phases) and falls
	// back to the flat greedy heuristic — the pre-cost-model behavior,
	// kept for ablation benchmarks.
	DisableCostBased bool
	// Cost carries the live runtime-feedback numbers the cost model
	// prices plans with. The zero value is normalized to
	// DefaultCostInputs.
	Cost CostInputs
}

// Result is the optimized plan with its compile-time annotations.
type Result struct {
	Root plan.Node
	// Warnings are human-readable compile-time diagnostics (unbounded
	// crowd access, cross products, ...).
	Warnings []string
	// Bounded reports whether every crowd access in the plan is bounded:
	// the predicted cost is finite.
	Bounded bool
	// Costs are the cost model's per-node predictions (crowd cents,
	// crowd-latency seconds, output rows); EXPLAIN prints them.
	Costs map[plan.Node]plan.Cost
	// Predicted is the root's total predicted cost for the statement.
	Predicted plan.Cost
}

// Optimize rewrites the logical plan. It returns an error for unbounded
// crowd access unless opts.AllowUnbounded is set.
func Optimize(root plan.Node, cat *catalog.Catalog, opts Options) (*Result, error) {
	opts.Cost = opts.Cost.normalized()
	o := &optimizer{cat: cat, opts: opts}
	if !opts.DisablePushdown {
		root = o.pushPredicates(root)
	}
	DeriveProbeKeys(root)
	if !opts.DisableJoinReorder {
		root = o.reorderJoins(root)
	}
	if !opts.DisableStopAfter {
		root = o.pushLimits(root, -1, true)
	}
	if !opts.DisableCostBased {
		o.orderFilterPhases(root)
	}
	// Final costing pass: a fresh model, because the tree was mutated
	// (stop-after, filter phases) since any costs computed during the
	// join-order search.
	cm := newCostModel(o)
	res := &Result{Root: root, Predicted: cm.cost(root), Costs: cm.memo}
	res.Bounded = !res.Predicted.IsUnbounded()
	stampBuildRows(root, res.Costs)
	o.warnUnbounded(root, res.Costs)
	res.Warnings = o.warnings
	if !res.Bounded && !opts.AllowUnbounded {
		return nil, fmt.Errorf("optimizer: plan requests an unbounded amount of crowd data: %s",
			strings.Join(res.Warnings, "; "))
	}
	return res, nil
}

// warnUnbounded names each CrowdProbe under n whose unbounded cost reaches
// n: an unbounded input a CrowdJoin binds stops at the join's finite cost.
func (o *optimizer) warnUnbounded(n plan.Node, costs map[plan.Node]plan.Cost) {
	if !costs[n].IsUnbounded() {
		return
	}
	if p, ok := n.(*plan.CrowdProbe); ok {
		o.warnf("scan of CROWD table %s is unbounded: add a key predicate or LIMIT", p.Scan.Alias)
		return
	}
	for _, c := range n.Children() {
		o.warnUnbounded(c, costs)
	}
}

// stampBuildRows writes each join's build-side row estimate onto the
// plan node so the executor's hash join can pre-size its build table
// instead of rehashing its way up from an empty map.
func stampBuildRows(n plan.Node, costs map[plan.Node]plan.Cost) {
	if j, ok := n.(*plan.Join); ok {
		j.BuildRows = costs[j.Right].Rows
	}
	for _, c := range n.Children() {
		stampBuildRows(c, costs)
	}
}

type optimizer struct {
	cat      *catalog.Catalog
	opts     Options
	warnings []string
}

func (o *optimizer) warnf(format string, args ...interface{}) {
	o.warnings = append(o.warnings, fmt.Sprintf(format, args...))
}

// ---------------------------------------------------------------------------
// Rule 1: predicate push-down

// pushPredicates moves non-crowd filter conjuncts as close to the scans as
// possible; conjuncts spanning an inner/cross join migrate into its ON.
// Under a CrowdProbe, a conjunct that reads a crowd column stays with the
// probe and the others go down to its scan.
func (o *optimizer) pushPredicates(n plan.Node) plan.Node {
	switch x := n.(type) {
	case *plan.Filter:
		x.Input = o.pushPredicates(x.Input)
		var rest []parser.Expr
		for _, conj := range parser.SplitConjuncts(x.Cond) {
			if parser.HasCrowdFunc(conj) || hasSubquery(conj) || !o.push(x.Input, conj) {
				rest = append(rest, conj)
			}
		}
		if len(rest) == 0 {
			return x.Input
		}
		x.Cond = joinConjuncts(rest)
		return x
	case *plan.Join:
		x.Left = o.pushPredicates(x.Left)
		x.Right = o.pushPredicates(x.Right)
		if x.On != nil && x.Type != parser.JoinLeft {
			var rest []parser.Expr
			for _, conj := range parser.SplitConjuncts(x.On) {
				if parser.HasCrowdFunc(conj) || hasSubquery(conj) || !o.pushToSide(x, conj) {
					rest = append(rest, conj)
				}
			}
			x.On = joinConjuncts(rest)
		}
		return x
	case *plan.Project:
		x.Input = o.pushPredicates(x.Input)
		return x
	case *plan.Aggregate:
		x.Input = o.pushPredicates(x.Input)
		return x
	case *plan.Sort:
		x.Input = o.pushPredicates(x.Input)
		return x
	case *plan.Limit:
		x.Input = o.pushPredicates(x.Input)
		return x
	case *plan.Distinct:
		x.Input = o.pushPredicates(x.Input)
		return x
	default:
		return n
	}
}

// push tries to attach conj below n; it reports success.
func (o *optimizer) push(n plan.Node, conj parser.Expr) bool {
	switch x := n.(type) {
	case *plan.Scan:
		if plan.CoveredBy(conj, x.Schema()) {
			x.Filter = parser.And(x.Filter, conj)
			return true
		}
	case *plan.CrowdProbe:
		if !x.Scan.ReadsCrowd(conj) {
			return o.push(x.Scan, conj)
		}
		if plan.CoveredBy(conj, x.Schema()) {
			x.Filter = parser.And(x.Filter, conj)
			return true
		}
	case *plan.Filter:
		return o.push(x.Input, conj)
	case *plan.Join:
		if x.Type == parser.JoinLeft {
			// Only the preserved (left) side accepts pushes safely.
			return plan.CoveredBy(conj, x.Left.Schema()) && o.push(x.Left, conj)
		}
		if plan.CoveredBy(conj, x.Left.Schema()) && o.push(x.Left, conj) {
			return true
		}
		if plan.CoveredBy(conj, x.Right.Schema()) && o.push(x.Right, conj) {
			return true
		}
		// Spans both sides: fold into the join condition (turns cross
		// products into equi-joins the executor can run as CrowdJoin).
		if plan.CoveredBy(conj, x.Schema()) {
			x.On = parser.And(x.On, conj)
			if x.Type == parser.JoinCross {
				x.Type = parser.JoinInner
			}
			return true
		}
	}
	return false
}

// pushToSide moves single-side ON conjuncts of inner joins down as filters.
func (o *optimizer) pushToSide(j *plan.Join, conj parser.Expr) bool {
	if plan.CoveredBy(conj, j.Left.Schema()) && o.push(j.Left, conj) {
		return true
	}
	if plan.CoveredBy(conj, j.Right.Schema()) && o.push(j.Right, conj) {
		return true
	}
	return false
}

func joinConjuncts(es []parser.Expr) parser.Expr {
	var out parser.Expr
	for _, e := range es {
		out = parser.And(out, e)
	}
	return out
}

// hasSubquery reports whether e contains an IN-subquery; those stay in
// Filter nodes where the executor can run them.
func hasSubquery(e parser.Expr) bool {
	found := false
	parser.WalkExprs(e, func(x parser.Expr) {
		if in, ok := x.(*parser.InExpr); ok && in.Sub != nil {
			found = true
		}
	})
	return found
}

// ---------------------------------------------------------------------------
// Rule 2: probe-key derivation

// DeriveProbeKeys extracts `col = literal` bindings from the pushed
// filters of each scan and its CrowdProbe into the scan's ProbeKeys: the
// keys CrowdProbe pre-fills when soliciting new tuples (§3.1), the
// bindings that bound a CROWD table's probe, and the keys an index access
// path probes with.
func DeriveProbeKeys(n plan.Node) {
	switch x := n.(type) {
	case *plan.Scan:
		addProbeKeys(x, x.Filter)
		return
	case *plan.CrowdProbe:
		addProbeKeys(x.Scan, x.Filter)
	}
	for _, c := range n.Children() {
		DeriveProbeKeys(c)
	}
}

func addProbeKeys(s *plan.Scan, filter parser.Expr) {
	if filter == nil {
		return
	}
	for _, conj := range parser.SplitConjuncts(filter) {
		if col, lit, ok := equalityBinding(conj); ok {
			s.ProbeKeys[strings.ToLower(col)] = lit
		}
	}
}

// equalityBinding matches `col = literal` (either order).
func equalityBinding(e parser.Expr) (string, *parser.Literal, bool) {
	be, ok := e.(*parser.BinaryExpr)
	if !ok || be.Op != "=" {
		return "", nil, false
	}
	if cr, ok := be.L.(*parser.ColumnRef); ok {
		if lit, ok := be.R.(*parser.Literal); ok {
			return cr.Name, lit, true
		}
	}
	if cr, ok := be.R.(*parser.ColumnRef); ok {
		if lit, ok := be.L.(*parser.Literal); ok {
			return cr.Name, lit, true
		}
	}
	return "", nil, false
}

// ---------------------------------------------------------------------------
// Rule 3: join ordering

// reorderJoins rebuilds maximal inner/cross join chains left-deep by a
// greedy heuristic: start from the cheapest bounded input, repeatedly join
// the cheapest connected input, putting crowd tables late so they are
// probed with bound keys rather than enumerated (§3.2.2 "re-order the
// operators to minimize the requests against the crowd").
func (o *optimizer) reorderJoins(n plan.Node) plan.Node {
	switch x := n.(type) {
	case *plan.Join:
		if x.Type == parser.JoinLeft {
			x.Left = o.reorderJoins(x.Left)
			x.Right = o.reorderJoins(x.Right)
			return x
		}
		leaves, conjuncts := o.collectJoinTree(x)
		if len(leaves) < 2 {
			return x
		}
		for i := range leaves {
			leaves[i] = o.reorderJoins(leaves[i])
		}
		return o.orderJoinChain(leaves, conjuncts)
	case *plan.Filter:
		x.Input = o.reorderJoins(x.Input)
		return x
	case *plan.Project:
		x.Input = o.reorderJoins(x.Input)
		return x
	case *plan.Aggregate:
		x.Input = o.reorderJoins(x.Input)
		return x
	case *plan.Sort:
		x.Input = o.reorderJoins(x.Input)
		return x
	case *plan.Limit:
		x.Input = o.reorderJoins(x.Input)
		return x
	case *plan.Distinct:
		x.Input = o.reorderJoins(x.Input)
		return x
	default:
		return n
	}
}

// collectJoinTree flattens a chain of inner/cross joins into leaves and ON
// conjuncts.
func (o *optimizer) collectJoinTree(j *plan.Join) ([]plan.Node, []parser.Expr) {
	var leaves []plan.Node
	var conjs []parser.Expr
	var walk func(n plan.Node)
	walk = func(n plan.Node) {
		if jn, ok := n.(*plan.Join); ok && jn.Type != parser.JoinLeft {
			walk(jn.Left)
			walk(jn.Right)
			if jn.On != nil {
				conjs = append(conjs, parser.SplitConjuncts(jn.On)...)
			}
			return
		}
		leaves = append(leaves, n)
	}
	walk(j)
	return leaves, conjs
}

// orderJoinChain rebuilds one flattened inner/cross join chain. The flat
// greedy heuristic is always computed (it is the deterministic baseline);
// with the cost model enabled and the chain small enough, a bounded DP
// enumeration of left-deep orders runs too and wins only when its
// predicted money×latency score is strictly better — ties keep the greedy
// plan, so existing workloads replay identically.
func (o *optimizer) orderJoinChain(leaves []plan.Node, conjuncts []parser.Expr) plan.Node {
	cm := newCostModel(o)
	greedy, greedyCrosses := o.buildGreedy(cm, leaves, conjuncts)
	chosen, crosses := greedy, greedyCrosses
	if !o.opts.DisableCostBased && len(leaves) <= dpMaxLeaves && len(conjuncts) <= dpMaxConjuncts {
		if dp, dpCrosses, ok := o.buildDP(cm, leaves, conjuncts); ok {
			if cm.score(dp) < cm.score(greedy)-scoreEpsilon {
				chosen, crosses = dp, dpCrosses
			}
		}
	}
	for _, cp := range crosses {
		o.warnf("cross product between %s and %s", describe(cp.left), describe(cp.right))
	}
	return chosen
}

// crossPair records a cross product a join-order builder introduced, in
// build order, so the chosen plan's warnings match the legacy ordering.
type crossPair struct{ left, right plan.Node }

// buildGreedy joins the leaves left-deep, ranking them by the rows cm
// predicts: bounded closed-world data is cheap, an unbounded crowd input
// infinite.
func (o *optimizer) buildGreedy(cm *costModel, leaves []plan.Node, conjuncts []parser.Expr) (plan.Node, []crossPair) {
	used := make([]bool, len(leaves))
	usedConj := make([]bool, len(conjuncts))
	var crosses []crossPair
	leafCost := func(n plan.Node) float64 { return cm.cost(n).Rows }

	// Seed: cheapest leaf.
	best := 0
	for i := range leaves {
		if leafCost(leaves[i]) < leafCost(leaves[best]) {
			best = i
		}
	}
	cur := leaves[best]
	used[best] = true

	for remaining := len(leaves) - 1; remaining > 0; remaining-- {
		curSchema := cur.Schema()
		pick, pickCost, connectedPick := -1, math.Inf(1), false
		for i := range leaves {
			if used[i] {
				continue
			}
			connected := false
			joint := append(append([]plan.Col{}, curSchema...), leaves[i].Schema()...)
			for ci, conj := range conjuncts {
				if usedConj[ci] {
					continue
				}
				if plan.CoveredBy(conj, joint) && !plan.CoveredBy(conj, curSchema) && !plan.CoveredBy(conj, leaves[i].Schema()) {
					connected = true
					break
				}
			}
			cost := leafCost(leaves[i])
			// Prefer connected inputs; among equals, cheapest. Always take
			// the first candidate (costs may be +Inf for unbounded scans).
			if pick < 0 || (connected && !connectedPick) || (connected == connectedPick && cost < pickCost) {
				pick, pickCost, connectedPick = i, cost, connected
			}
		}
		next := leaves[pick]
		used[pick] = true
		joint := append(append([]plan.Col{}, curSchema...), next.Schema()...)
		var on parser.Expr
		for ci, conj := range conjuncts {
			if usedConj[ci] {
				continue
			}
			if plan.CoveredBy(conj, joint) {
				on = parser.And(on, conj)
				usedConj[ci] = true
			}
		}
		jt := parser.JoinInner
		if on == nil {
			jt = parser.JoinCross
			crosses = append(crosses, crossPair{left: cur, right: next})
		}
		cur = &plan.Join{Left: cur, Right: next, Type: jt, On: on}
	}
	return cur, crosses
}

func describe(n plan.Node) string {
	switch x := n.(type) {
	case *plan.Scan:
		return x.Alias
	case *plan.CrowdProbe:
		return x.Scan.Alias
	}
	return n.Explain()
}

// ---------------------------------------------------------------------------
// Rule 4: stop-after push-down

// pushLimits walks down from Limit nodes, carrying the bound through
// row-preserving Projects (exact) and through Sorts, and returns n or what
// replaces it. A Sort whose keys the machine compares keeps an exact bound
// for itself: only that many rows of its output are ever read. Such a Sort
// moves below a Project that only copies its keys, so the projection runs
// over the rows kept, and hands its keys and bound to an Aggregate under it,
// which then builds only the groups kept. A CROWD table's probe takes any
// bound, exact or not, as the number of tuples to solicit — the paper's
// stop-after rule exists to bound crowd requests; below a Sort that is the
// bound's only use, since every stored row must reach the sort. A Scan
// takes an exact bound only, and through a probe only when the probe has no
// crowd conjunct left to apply.
func (o *optimizer) pushLimits(n plan.Node, bound int64, exact bool) plan.Node {
	switch x := n.(type) {
	case *plan.Limit:
		b := x.N
		if b >= 0 {
			b += x.Offset
		}
		x.Input = o.pushLimits(x.Input, b, true)
	case *plan.Project:
		x.Input = o.pushLimits(x.Input, bound, exact)
	case *plan.Sort:
		if !exact || bound < 0 || x.Crowd() {
			x.Input = o.pushLimits(x.Input, bound, false)
			return x
		}
		x.StopAfter = bound
		if p, ok := x.Input.(*plan.Project); ok {
			if keys, ok := projectedKeys(x.Keys, p); ok {
				x.Keys, x.Input, p.Input = keys, p.Input, x
				p.Input = o.pushLimits(x, bound, true)
				return p
			}
		}
		if a, ok := x.Input.(*plan.Aggregate); ok {
			a.TopKeys, a.TopK = x.Keys, bound
		}
		x.Input = o.pushLimits(x.Input, bound, false)
	case *plan.CrowdProbe:
		switch {
		case bound < 0:
		case x.Scan.Table.Crowd:
			x.Solicit = minBound(x.Solicit, bound)
		case x.Filter == nil:
			o.pushLimits(x.Scan, bound, exact)
		}
	case *plan.Scan:
		if bound >= 0 && exact {
			x.StopAfter = minBound(x.StopAfter, bound)
		}
	case *plan.Filter:
		x.Input = o.pushLimits(x.Input, -1, false)
	case *plan.Aggregate:
		x.Input = o.pushLimits(x.Input, -1, false)
	case *plan.Distinct:
		x.Input = o.pushLimits(x.Input, -1, false)
	case *plan.Join:
		// Pushing a bound through a filter, join, aggregate or distinct
		// would under-produce; recurse without one.
		x.Left = o.pushLimits(x.Left, -1, false)
		x.Right = o.pushLimits(x.Right, -1, false)
	}
	return n
}

// minBound is the tighter of two bounds, -1 meaning none.
func minBound(cur, bound int64) int64 {
	if cur < 0 || bound < cur {
		return bound
	}
	return cur
}

// projectedKeys rewrites sort keys over p's output to keys over p's input.
// It succeeds when every key names an output column that p copies from an
// input column and no item of p asks the crowd: moved below the sort, a
// crowd item would be asked about fewer rows.
func projectedKeys(keys []parser.OrderItem, p *plan.Project) ([]parser.OrderItem, bool) {
	for _, it := range p.Items {
		if parser.HasCrowdFunc(it.Expr) {
			return nil, false
		}
	}
	out := make([]parser.OrderItem, len(keys))
	for i, k := range keys {
		cr, ok := k.Expr.(*parser.ColumnRef)
		if !ok {
			return nil, false
		}
		at, err := plan.FindCol(p.Schema(), cr.Table, cr.Name)
		if err != nil {
			return nil, false
		}
		src, ok := p.Items[at].Expr.(*parser.ColumnRef)
		if !ok {
			return nil, false
		}
		out[i] = parser.OrderItem{Expr: src, Desc: k.Desc}
	}
	return out, true
}
