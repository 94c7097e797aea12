// Package plan defines CrowdDB's logical query algebra and the builder
// that lowers a parsed SELECT into it. The tree is what the rule-based
// optimizer (internal/optimizer) rewrites and what the executor
// (internal/exec) instantiates into physical operators, crowd operators
// included (paper §3.2.2: "CrowdDB generates the logical plan by parsing
// the query", then optimizes, then instantiates).
package plan

import (
	"fmt"
	"strings"

	"crowddb/internal/catalog"
	"crowddb/internal/parser"
	"crowddb/internal/sqltypes"
)

// Col is one column of a node's output schema.
type Col struct {
	Table string // alias of the producing table ("" for computed columns)
	Name  string
	Type  sqltypes.Type
	// Crowd marks columns whose values may be CNULL and crowdsourced.
	Crowd bool
}

func (c Col) String() string {
	if c.Table != "" {
		return c.Table + "." + c.Name
	}
	return c.Name
}

// Node is a logical operator.
type Node interface {
	// Schema is the node's output columns.
	Schema() []Col
	// Children returns input nodes (for traversal).
	Children() []Node
	// Explain renders one line of EXPLAIN output.
	Explain() string
}

// Scan reads the stored rows of one base table: no crowd work happens in
// it. Filter and StopAfter may be pushed into it by the optimizer; a
// CrowdProbe above it does what the crowd must.
type Scan struct {
	Table *catalog.Table
	Alias string
	// Filter is a pushed-down predicate over this table's stored values
	// (nil = none).
	Filter parser.Expr
	// StopAfter is how many rows passing Filter the scan returns before it
	// stops (-1 = all). The optimizer sets it only where exactly that many
	// rows are read.
	StopAfter int64
	// ProbeKeys are equality bindings (column = literal) derived from the
	// pushed predicates, this scan's and its CrowdProbe's: an index access
	// path probes with them, and a tuple solicitation pre-fills them. A
	// slot literal's value is the executing statement's (exec.Ctx).
	ProbeKeys map[string]*parser.Literal

	schema []Col
}

// NewScan builds a scan with its schema derived from the table definition.
func NewScan(t *catalog.Table, alias string) *Scan {
	if alias == "" {
		alias = t.Name
	}
	s := &Scan{Table: t, Alias: alias, StopAfter: -1, ProbeKeys: map[string]*parser.Literal{}}
	for _, c := range t.Columns {
		s.schema = append(s.schema, Col{Table: alias, Name: c.Name, Type: c.Type, Crowd: c.Crowd})
	}
	return s
}

// Schema implements Node.
func (s *Scan) Schema() []Col { return s.schema }

// Children implements Node.
func (s *Scan) Children() []Node { return nil }

// Explain implements Node.
func (s *Scan) Explain() string {
	out := "Scan" + s.name()
	if s.Filter != nil {
		out += fmt.Sprintf(" filter=%s", s.Filter)
	}
	if s.StopAfter >= 0 {
		out += fmt.Sprintf(" stopafter=%d", s.StopAfter)
	}
	return out
}

// name renders "(Table)" or "(Table AS alias)" for EXPLAIN.
func (s *Scan) name() string {
	if strings.EqualFold(s.Alias, s.Table.Name) {
		return "(" + s.Table.Name + ")"
	}
	return "(" + s.Table.Name + " AS " + s.Alias + ")"
}

// ReadsCrowd reports whether e references a CROWD column of the table: a
// conjunct that does is decided only once the crowd has filled the
// column's CNULLs.
func (s *Scan) ReadsCrowd(e parser.Expr) bool {
	reads := false
	parser.WalkExprs(e, func(x parser.Expr) {
		if cr, ok := x.(*parser.ColumnRef); ok {
			if col, found := s.Table.Column(cr.Name); found && col.Crowd {
				reads = true
			}
		}
	})
	return reads
}

// CrowdProbe is the paper's CrowdProbe operator (§3.2.1) over the stored
// rows its Scan reads: it fills the CNULLs of AskColumns through the crowd,
// solicits new tuples for a CROWD table, and then applies Filter.
type CrowdProbe struct {
	Scan *Scan
	// AskColumns are the table's crowd columns the query references, whose
	// CNULLs must therefore be filled (§2.1).
	AskColumns []string
	// Filter conjoins the pushed conjuncts that read a crowd column
	// (nil = none); the ones that do not are in Scan.Filter.
	Filter parser.Expr
	// Solicit bounds the tuples a CROWD table's probe returns, stored and
	// solicited together (-1 = no bound): the stop-after rule's bound on
	// crowd requests (§3.2.2).
	Solicit int64
}

// Schema implements Node.
func (p *CrowdProbe) Schema() []Col { return p.Scan.Schema() }

// Children implements Node.
func (p *CrowdProbe) Children() []Node { return []Node{p.Scan} }

// Explain implements Node.
func (p *CrowdProbe) Explain() string {
	out := "CrowdProbe" + p.Scan.name()
	if p.Filter != nil {
		out += fmt.Sprintf(" filter=%s", p.Filter)
	}
	if p.Solicit >= 0 {
		out += fmt.Sprintf(" solicit=%d", p.Solicit)
	}
	if len(p.AskColumns) > 0 {
		out += " ask=[" + strings.Join(p.AskColumns, ",") + "]"
	}
	return out
}

// Filter drops rows not satisfying Cond. Crowd predicates (CROWDEQUAL, ~=)
// stay in Filter nodes; the executor evaluates them with CrowdCompare.
type Filter struct {
	Input Node
	Cond  parser.Expr
	// Pre is the cheap (crowd-free) part of Cond, ordered first by the
	// cost-based optimizer: the executor prunes rows with Pre before any
	// crowd comparison is paid for, so rows a machine predicate rejects
	// never reach the crowd. Nil when Cond has no cheap conjuncts or
	// cost-based optimization is disabled (Cond alone is then complete).
	Pre parser.Expr
}

// Schema implements Node.
func (f *Filter) Schema() []Col { return f.Input.Schema() }

// Children implements Node.
func (f *Filter) Children() []Node { return []Node{f.Input} }

// Explain implements Node.
func (f *Filter) Explain() string {
	kind := "Filter"
	if parser.HasCrowdFunc(f.Cond) {
		kind = "CrowdFilter"
	}
	if f.Pre != nil {
		return fmt.Sprintf("%s(%s) pre=%s", kind, f.Cond, f.Pre)
	}
	return fmt.Sprintf("%s(%s)", kind, f.Cond)
}

// Join combines two inputs. Equi-join keys, when detectable, let the
// executor pick index nested-loop (CrowdJoin when the inner is
// crowdsourced, §3.2.1) or hash join.
type Join struct {
	Left, Right Node
	Type        parser.JoinType
	On          parser.Expr
	// BuildRows is the optimizer's cardinality estimate for the build
	// (right) side, stamped after costing; a hash join pre-sizes its
	// build table from it. 0 = no estimate.
	BuildRows float64
}

// Schema implements Node.
func (j *Join) Schema() []Col {
	return append(append([]Col{}, j.Left.Schema()...), j.Right.Schema()...)
}

// Children implements Node.
func (j *Join) Children() []Node { return []Node{j.Left, j.Right} }

// Explain implements Node.
func (j *Join) Explain() string {
	t := map[parser.JoinType]string{
		parser.JoinInner: "InnerJoin", parser.JoinLeft: "LeftJoin", parser.JoinCross: "CrossJoin",
	}[j.Type]
	if j.On != nil {
		return fmt.Sprintf("%s(%s)", t, j.On)
	}
	return t
}

// CrowdJoin returns the join's CrowdJoin binding (§3.2.1): the join is
// inner, its inner input is a CrowdProbe of a CROWD table, and a conjunct
// of ON equates a column of that input with an expression over the outer
// one, outerKey. Every other conjunct is in residual. ok is false when the
// join is no CrowdJoin.
func (j *Join) CrowdJoin() (probe *CrowdProbe, outerKey parser.Expr, innerCol string, residual parser.Expr, ok bool) {
	probe, isProbe := j.Right.(*CrowdProbe)
	if j.Type != parser.JoinInner || j.On == nil || !isProbe || !probe.Scan.Table.Crowd {
		return nil, nil, "", nil, false
	}
	outer := j.Left.Schema()
	binds := func(col, key parser.Expr) bool {
		cr, isCol := col.(*parser.ColumnRef)
		if ok || !isCol || !CoveredBy(cr, probe.Schema()) || !CoveredBy(key, outer) {
			return false
		}
		outerKey, innerCol, ok = key, cr.Name, true
		return true
	}
	for _, conj := range parser.SplitConjuncts(j.On) {
		be, isBin := conj.(*parser.BinaryExpr)
		if !isBin || be.Op != "=" || !(binds(be.L, be.R) || binds(be.R, be.L)) {
			residual = parser.And(residual, conj)
		}
	}
	if !ok {
		return nil, nil, "", nil, false
	}
	return probe, outerKey, innerCol, residual, true
}

// Project computes the SELECT list.
type Project struct {
	Input Node
	Items []parser.SelectItem

	schema []Col
}

// Schema implements Node.
func (p *Project) Schema() []Col { return p.schema }

// Children implements Node.
func (p *Project) Children() []Node { return []Node{p.Input} }

// Explain implements Node.
func (p *Project) Explain() string {
	var parts []string
	for _, it := range p.Items {
		parts = append(parts, it.String())
	}
	return "Project(" + strings.Join(parts, ", ") + ")"
}

// Aggregate groups and aggregates.
type Aggregate struct {
	Input   Node
	GroupBy []parser.Expr
	// Items are the output select items (aggregates and group keys).
	Items  []parser.SelectItem
	Having parser.Expr
	// TopKeys, when set, order the output as the bounded Sort above does,
	// and only the TopK groups first in that order are output (in group
	// order). The optimizer's stop-after rule hands them down from a Sort
	// whose keys the machine compares.
	TopKeys []parser.OrderItem
	TopK    int64

	schema []Col
}

// Schema implements Node.
func (a *Aggregate) Schema() []Col { return a.schema }

// Children implements Node.
func (a *Aggregate) Children() []Node { return []Node{a.Input} }

// Explain implements Node.
func (a *Aggregate) Explain() string {
	var gs []string
	for _, g := range a.GroupBy {
		gs = append(gs, g.String())
	}
	s := "Aggregate(group=[" + strings.Join(gs, ", ") + "]"
	if a.Having != nil {
		s += " having=" + a.Having.String()
	}
	s += ")"
	if a.TopKeys != nil {
		s += fmt.Sprintf(" topk=%d", a.TopK)
	}
	return s
}

// Sort orders rows. Keys containing CROWDORDER calls make the executor use
// the CrowdCompare-backed sort (paper Example 3).
type Sort struct {
	Input Node
	Keys  []parser.OrderItem
	// StopAfter is how many rows of the sorted output anything above reads
	// (-1 = all of it); the optimizer's stop-after rule sets it, for machine
	// keys only, and the executor then keeps that many rows, not its input.
	StopAfter int64
}

// NewSort builds an unbounded sort.
func NewSort(input Node, keys []parser.OrderItem) *Sort {
	return &Sort{Input: input, Keys: keys, StopAfter: -1}
}

// Schema implements Node.
func (s *Sort) Schema() []Col { return s.Input.Schema() }

// Children implements Node.
func (s *Sort) Children() []Node { return []Node{s.Input} }

// Crowd reports whether a key is a CROWDORDER call: the crowd, not the
// machine, then decides the order.
func (s *Sort) Crowd() bool {
	for _, k := range s.Keys {
		if parser.HasCrowdFunc(k.Expr) {
			return true
		}
	}
	return false
}

// Explain implements Node.
func (s *Sort) Explain() string {
	var ks []string
	for _, k := range s.Keys {
		item := k.Expr.String()
		if k.Desc {
			item += " DESC"
		}
		ks = append(ks, item)
	}
	kind := "Sort"
	if s.Crowd() {
		kind = "CrowdSort"
	}
	out := kind + "(" + strings.Join(ks, ", ") + ")"
	if s.StopAfter >= 0 {
		out += fmt.Sprintf(" stopafter=%d", s.StopAfter)
	}
	return out
}

// Limit truncates output.
type Limit struct {
	Input  Node
	N      int64
	Offset int64
}

// Schema implements Node.
func (l *Limit) Schema() []Col { return l.Input.Schema() }

// Children implements Node.
func (l *Limit) Children() []Node { return []Node{l.Input} }

// Explain implements Node.
func (l *Limit) Explain() string {
	if l.Offset > 0 {
		return fmt.Sprintf("Limit(%d offset %d)", l.N, l.Offset)
	}
	return fmt.Sprintf("Limit(%d)", l.N)
}

// Distinct removes duplicate rows.
type Distinct struct{ Input Node }

// Schema implements Node.
func (d *Distinct) Schema() []Col { return d.Input.Schema() }

// Children implements Node.
func (d *Distinct) Children() []Node { return []Node{d.Input} }

// Explain implements Node.
func (d *Distinct) Explain() string { return "Distinct" }

// ExplainTree renders the whole plan, one node per line, children indented.
func ExplainTree(n Node) string { return ExplainTreeAnnotated(n, nil) }

// ExplainTreeAnnotated renders the plan with an optional per-node
// annotation (EXPLAIN uses it for the optimizer's cardinality predictions,
// §3.2.2: "the heuristic first annotates the query plan with the
// cardinality predictions between the operators").
func ExplainTreeAnnotated(n Node, annotate func(Node) string) string {
	var sb strings.Builder
	var walk func(Node, int)
	walk = func(n Node, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(n.Explain())
		if annotate != nil {
			if extra := annotate(n); extra != "" {
				sb.WriteString("  " + extra)
			}
		}
		sb.WriteByte('\n')
		for _, c := range n.Children() {
			walk(c, depth+1)
		}
	}
	walk(n, 0)
	return sb.String()
}

// FindCol resolves a column reference against a schema. Empty table matches
// any alias but must be unambiguous.
func FindCol(schema []Col, table, name string) (int, error) {
	found := -1
	for i, c := range schema {
		if !strings.EqualFold(c.Name, name) {
			continue
		}
		if table != "" && !strings.EqualFold(c.Table, table) {
			continue
		}
		if found >= 0 {
			return -1, fmt.Errorf("plan: ambiguous column %q", name)
		}
		found = i
	}
	if found < 0 {
		if table != "" {
			return -1, fmt.Errorf("plan: column %s.%s not found", table, name)
		}
		return -1, fmt.Errorf("plan: column %q not found", name)
	}
	return found, nil
}

// CoveredBy reports whether every column reference in e resolves in
// schema.
func CoveredBy(e parser.Expr, schema []Col) bool { return bindExpr(e, schema) == nil }
