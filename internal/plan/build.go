package plan

import (
	"fmt"
	"slices"
	"strings"

	"crowddb/internal/catalog"
	"crowddb/internal/parser"
	"crowddb/internal/sqltypes"
)

// Build lowers a parsed SELECT into a logical plan, binding every column
// reference against the catalog. The produced tree is canonical and
// unoptimized: Scan|CrowdProbe(Scan) → Join* → Filter →
// Aggregate|Project → Distinct → Sort → Limit; the optimizer rewrites it
// afterwards.
func Build(sel *parser.Select, cat *catalog.Catalog) (Node, error) {
	if len(sel.From) == 0 {
		return nil, fmt.Errorf("plan: SELECT without FROM is not supported")
	}

	// FROM: scans, joined left-deep in syntactic order.
	var scans []*Scan
	seen := map[string]bool{}
	var root Node
	for i, tr := range sel.From {
		t, ok := cat.Table(tr.Table)
		if !ok {
			return nil, fmt.Errorf("plan: table %s not found", tr.Table)
		}
		alias := tr.Alias
		if alias == "" {
			alias = t.Name
		}
		if seen[strings.ToLower(alias)] {
			return nil, fmt.Errorf("plan: duplicate table alias %q", alias)
		}
		seen[strings.ToLower(alias)] = true
		s := NewScan(t, alias)
		scans = append(scans, s)
		if i == 0 {
			root = s
			continue
		}
		jt := tr.Join
		if jt == parser.JoinNone {
			jt = parser.JoinCross
		}
		root = &Join{Left: root, Right: s, Type: jt, On: tr.On}
		if tr.On != nil {
			if err := bindExpr(tr.On, root.Schema()); err != nil {
				return nil, err
			}
		}
	}

	// Expand stars into explicit select items.
	items, err := expandStars(sel.Items, root.Schema())
	if err != nil {
		return nil, err
	}
	// A leaf whose table is CROWD or whose crowd columns the query
	// references reads through a CrowdProbe: CrowdDB must fill exactly the
	// CNULLs the query asks for (§2.1 semantics).
	root = withProbes(root, sel, items, scans)

	// Bind remaining clauses against the join output schema.
	if sel.Where != nil {
		if err := bindExpr(sel.Where, root.Schema()); err != nil {
			return nil, err
		}
		root = &Filter{Input: root, Cond: sel.Where}
	}
	for _, g := range sel.GroupBy {
		if err := bindExpr(g, root.Schema()); err != nil {
			return nil, err
		}
	}
	for _, it := range items {
		if err := bindExpr(it.Expr, root.Schema()); err != nil {
			return nil, err
		}
	}

	hasAgg := len(sel.GroupBy) > 0
	for _, it := range items {
		if parser.HasAggregate(it.Expr) {
			hasAgg = true
		}
	}

	if hasAgg {
		if err := checkGrouping(items, sel.GroupBy); err != nil {
			return nil, err
		}
		agg := &Aggregate{Input: root, GroupBy: sel.GroupBy, Items: items, Having: sel.Having}
		agg.schema = outputSchema(items, root.Schema())
		if sel.Having != nil {
			if err := bindExpr(sel.Having, root.Schema()); err != nil {
				return nil, err
			}
		}
		root = agg
	} else {
		if sel.Having != nil {
			return nil, fmt.Errorf("plan: HAVING requires GROUP BY or aggregates")
		}
		proj := &Project{Input: root, Items: items}
		proj.schema = outputSchema(items, root.Schema())
		root = proj
	}

	if sel.Distinct {
		root = &Distinct{Input: root}
	}

	if len(sel.OrderBy) > 0 {
		node, err := placeSort(root, sel)
		if err != nil {
			return nil, err
		}
		root = node
	}

	if sel.Limit >= 0 || sel.Offset > 0 {
		n := sel.Limit
		if n < 0 {
			n = -1
		}
		root = &Limit{Input: root, N: n, Offset: sel.Offset}
	}

	return root, nil
}

// expandStars replaces * and t.* with explicit column references.
func expandStars(items []parser.SelectItem, schema []Col) ([]parser.SelectItem, error) {
	var out []parser.SelectItem
	for _, it := range items {
		if !it.Star {
			out = append(out, it)
			continue
		}
		matched := false
		for _, c := range schema {
			if it.StarTable != "" && !strings.EqualFold(c.Table, it.StarTable) {
				continue
			}
			matched = true
			out = append(out, parser.SelectItem{Expr: &parser.ColumnRef{Table: c.Table, Name: c.Name}})
		}
		if !matched {
			return nil, fmt.Errorf("plan: %s.* matches no table", it.StarTable)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("plan: empty select list")
	}
	return out, nil
}

// bindExpr checks every column reference resolves in the schema.
func bindExpr(e parser.Expr, schema []Col) error {
	var firstErr error
	parser.WalkExprs(e, func(x parser.Expr) {
		if firstErr != nil {
			return
		}
		if cr, ok := x.(*parser.ColumnRef); ok {
			if _, err := FindCol(schema, cr.Table, cr.Name); err != nil {
				firstErr = err
			}
		}
	})
	return firstErr
}

// placeSort positions the Sort operator. SQL lets ORDER BY reference output
// columns (aliases, select-list expressions) or, for plain projections,
// input columns not in the select list — in the latter case the sort runs
// below the projection. Over GROUP BY, a key holding an aggregate call the
// select list lacks is computed by the Aggregate as a hidden column, which a
// Project above the Sort drops again.
func placeSort(root Node, sel *parser.Select) (Node, error) {
	order := sel.OrderBy
	var drop *Project
	if agg, ok := root.(*Aggregate); ok && !sel.Distinct {
		var err error
		if order, drop, err = hideSortAggregates(agg, order); err != nil {
			return nil, err
		}
	}
	node, err := sortOn(root, order, sel.Distinct)
	if err != nil || drop == nil {
		return node, err
	}
	drop.Input = node
	return drop, nil
}

// hideSortAggregates appends to agg, as hidden items, the ORDER BY keys that
// hold an aggregate call and are not output columns, and returns the keys
// with those rewritten to read the hidden columns, plus the Project (its
// Input left to the caller) that keeps only the select list. It changes
// nothing when no key needs a hidden column, or when a column would not
// resolve by name afterwards.
func hideSortAggregates(agg *Aggregate, order []parser.OrderItem) ([]parser.OrderItem, *Project, error) {
	visible := len(agg.Items)
	items := agg.Items[:visible:visible]
	keys := append([]parser.OrderItem(nil), order...)
	for i, k := range order {
		if parser.HasCrowdFunc(k.Expr) || !parser.HasAggregate(k.Expr) {
			continue
		}
		name := k.Expr.String()
		if _, err := FindCol(agg.schema, "", name); err == nil {
			continue // an output column: sortOn reads it as such
		}
		if err := bindExpr(k.Expr, agg.Input.Schema()); err != nil {
			return nil, nil, err
		}
		if !slices.ContainsFunc(items[visible:], func(it parser.SelectItem) bool { return it.Expr.String() == name }) {
			items = append(items, parser.SelectItem{Expr: k.Expr})
		}
		keys[i] = parser.OrderItem{Expr: &parser.ColumnRef{Name: name}, Desc: k.Desc}
	}
	if len(items) == visible {
		return order, nil, nil
	}
	schema := outputSchema(items, agg.Input.Schema())
	drop := &Project{schema: schema[:visible:visible]}
	for i, c := range schema {
		if at, err := FindCol(schema, c.Table, c.Name); err != nil || at != i {
			return order, nil, nil
		}
	}
	for _, c := range drop.schema {
		drop.Items = append(drop.Items, parser.SelectItem{Expr: &parser.ColumnRef{Table: c.Table, Name: c.Name}})
	}
	agg.Items, agg.schema = items, schema
	return keys, drop, nil
}

// sortOn places a Sort on keys over root (see placeSort).
func sortOn(root Node, order []parser.OrderItem, distinct bool) (Node, error) {
	outSchema := root.Schema()
	keys := make([]parser.OrderItem, len(order))
	allOutput := true
	for i, k := range order {
		keys[i] = k
		if parser.HasCrowdFunc(k.Expr) {
			continue // crowd keys bind loosely at execution time
		}
		if cr, ok := k.Expr.(*parser.ColumnRef); ok {
			if _, err := FindCol(outSchema, cr.Table, cr.Name); err == nil {
				continue
			}
		} else if _, err := FindCol(outSchema, "", k.Expr.String()); err == nil {
			// e.g. ORDER BY COUNT(*) over an aggregate output column named
			// "COUNT(*)": rewrite to a reference to that output column.
			keys[i] = parser.OrderItem{Expr: &parser.ColumnRef{Name: k.Expr.String()}, Desc: k.Desc}
			continue
		}
		allOutput = false
	}
	if allOutput {
		return NewSort(root, keys), nil
	}
	// Keys reference pre-projection columns: sort under the projection.
	proj, ok := root.(*Project)
	if !ok || distinct {
		for _, k := range order {
			if err := bindSortKey(k.Expr, outSchema); err != nil {
				return nil, err
			}
		}
		return NewSort(root, order), nil
	}
	for _, k := range order {
		if err := bindSortKey(k.Expr, proj.Input.Schema()); err != nil {
			return nil, err
		}
	}
	proj.Input = NewSort(proj.Input, order)
	return proj, nil
}

// bindSortKey resolves a sort key against the (possibly projected) schema.
// Keys may name output columns (aliases), input columns, or — for
// CROWDORDER keys — anything at all: the comparison is delegated to the
// crowd, with the first argument rendered per row.
func bindSortKey(e parser.Expr, schema []Col) error {
	if parser.HasCrowdFunc(e) {
		return nil
	}
	return bindExpr(e, schema)
}

// checkGrouping enforces that non-aggregate select items appear in GROUP BY;
// a literal is the same in every group.
func checkGrouping(items []parser.SelectItem, groupBy []parser.Expr) error {
	keys := map[string]bool{}
	for _, g := range groupBy {
		keys[g.String()] = true
	}
	for _, it := range items {
		if _, lit := it.Expr.(*parser.Literal); lit || parser.HasAggregate(it.Expr) {
			continue
		}
		if !keys[it.Expr.String()] {
			return fmt.Errorf("plan: %s must appear in GROUP BY or an aggregate", it.Expr)
		}
	}
	return nil
}

// outputSchema names projected columns: alias > column name > expression
// text, with best-effort type inference.
func outputSchema(items []parser.SelectItem, in []Col) []Col {
	out := make([]Col, 0, len(items))
	for _, it := range items {
		col := Col{Type: InferType(it.Expr, in)}
		switch e := it.Expr.(type) {
		case *parser.ColumnRef:
			col.Table = e.Table
			col.Name = e.Name
			if i, err := FindCol(in, e.Table, e.Name); err == nil {
				col.Table = in[i].Table
				col.Crowd = in[i].Crowd
			}
		default:
			col.Name = it.Expr.String()
		}
		if it.Alias != "" {
			col.Name = it.Alias
			col.Table = ""
		}
		out = append(out, col)
	}
	return out
}

// InferType derives an expression's static type over schema: TypeAny when
// it cannot tell.
func InferType(e parser.Expr, schema []Col) sqltypes.Type {
	switch x := e.(type) {
	case *parser.Literal:
		return x.Val.TypeOf()
	case *parser.ColumnRef:
		if i, err := FindCol(schema, x.Table, x.Name); err == nil {
			return schema[i].Type
		}
	case *parser.FuncCall:
		switch x.Name {
		case "COUNT", "LENGTH":
			return sqltypes.TypeInt
		case "AVG":
			return sqltypes.TypeFloat
		case "SUM", "MIN", "MAX", "ROUND", "ABS", "COALESCE":
			if len(x.Args) > 0 {
				return InferType(x.Args[0], schema)
			}
		case "LOWER", "UPPER", "TRIM", "SUBSTR":
			return sqltypes.TypeString
		case "CROWDEQUAL":
			return sqltypes.TypeBool
		}
	case *parser.BinaryExpr:
		switch x.Op {
		case "AND", "OR", "=", "<>", "<", "<=", ">", ">=", "LIKE", "~=":
			return sqltypes.TypeBool
		case "||":
			return sqltypes.TypeString
		default:
			lt, rt := InferType(x.L, schema), InferType(x.R, schema)
			if lt == sqltypes.TypeFloat || rt == sqltypes.TypeFloat || x.Op == "/" {
				return sqltypes.TypeFloat
			}
			return sqltypes.TypeInt
		}
	case *parser.UnaryExpr:
		if x.Op == "NOT" {
			return sqltypes.TypeBool
		}
		return InferType(x.E, schema)
	case *parser.IsNullExpr, *parser.InExpr, *parser.BetweenExpr:
		return sqltypes.TypeBool
	}
	return sqltypes.TypeAny
}

// withProbes wraps each scan leaf of the join tree n whose table is CROWD
// or has a crowd column the query asks for in a CrowdProbe, and returns n
// or what replaces it.
func withProbes(n Node, sel *parser.Select, items []parser.SelectItem, scans []*Scan) Node {
	switch x := n.(type) {
	case *Join:
		x.Left = withProbes(x.Left, sel, items, scans)
		x.Right = withProbes(x.Right, sel, items, scans)
	case *Scan:
		if ask := askColumns(sel, items, scans, x); x.Table.Crowd || len(ask) > 0 {
			return &CrowdProbe{Scan: x, AskColumns: ask, Solicit: -1}
		}
	}
	return n
}

// askColumns lists, in table order, the crowd columns of s the query
// references anywhere — exactly the CNULLs CrowdDB must instantiate.
func askColumns(sel *parser.Select, items []parser.SelectItem, scans []*Scan, s *Scan) []string {
	if !s.Table.HasCrowdColumns() {
		return nil
	}
	asked := map[string]bool{}
	visit := func(x parser.Expr) {
		cr, ok := x.(*parser.ColumnRef)
		if !ok {
			return
		}
		if cr.Table != "" && !strings.EqualFold(cr.Table, s.Alias) {
			return
		}
		col, ok := s.Table.Column(cr.Name)
		if !ok || !col.Crowd {
			return
		}
		// Unqualified references could belong to another scan; only claim
		// them when the name is unique to this scan among all.
		if cr.Table == "" && !uniqueAmong(scans, s, cr.Name) {
			return
		}
		asked[col.Name] = true
	}
	for _, it := range items {
		walkSkippingNullTests(it.Expr, visit)
	}
	walkSkippingNullTests(sel.Where, visit)
	walkSkippingNullTests(sel.Having, visit)
	for _, g := range sel.GroupBy {
		walkSkippingNullTests(g, visit)
	}
	for _, k := range sel.OrderBy {
		walkSkippingNullTests(k.Expr, visit)
	}
	for _, tr := range sel.From {
		walkSkippingNullTests(tr.On, visit)
	}
	var ask []string
	for _, c := range s.Table.Columns {
		if asked[c.Name] {
			ask = append(ask, c.Name)
		}
	}
	return ask
}

// walkSkippingNullTests visits sub-expressions like parser.WalkExprs but
// does not descend into IS [NOT] [C]NULL tests: checking whether a value is
// CNULL does not *require* the value, so it must not trigger crowdsourcing
// (otherwise `WHERE abstract IS CNULL` would instantiate every abstract
// before filtering).
func walkSkippingNullTests(e parser.Expr, fn func(parser.Expr)) {
	if e == nil {
		return
	}
	if _, ok := e.(*parser.IsNullExpr); ok {
		return
	}
	fn(e)
	switch x := e.(type) {
	case *parser.BinaryExpr:
		walkSkippingNullTests(x.L, fn)
		walkSkippingNullTests(x.R, fn)
	case *parser.UnaryExpr:
		walkSkippingNullTests(x.E, fn)
	case *parser.InExpr:
		walkSkippingNullTests(x.E, fn)
		for _, v := range x.List {
			walkSkippingNullTests(v, fn)
		}
	case *parser.BetweenExpr:
		walkSkippingNullTests(x.E, fn)
		walkSkippingNullTests(x.Lo, fn)
		walkSkippingNullTests(x.Hi, fn)
	case *parser.FuncCall:
		for _, a := range x.Args {
			walkSkippingNullTests(a, fn)
		}
	}
}

func uniqueAmong(scans []*Scan, owner *Scan, col string) bool {
	n := 0
	for _, s := range scans {
		if _, ok := s.Table.Column(col); ok {
			n++
		}
	}
	_, ok := owner.Table.Column(col)
	return ok && n == 1
}
