package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"crowddb/internal/lexer"
	"crowddb/internal/optimizer"
	"crowddb/internal/parser"
	"crowddb/internal/plan"
	"crowddb/internal/sqltypes"
)

// The plan cache's equivalence net is on for every test of this package:
// each hit's statement is parsed and compiled afresh as well, and it fails
// unless the fresh parse is one statement holding the slot values the hit
// binds, whose text is the entry's tree printed with them, and the two
// compiles agree: for a SELECT, on the EXPLAIN text with slot literals
// masked (costs and probe keys included), the forecast, boundedness and
// warnings; for a DML statement, on the table, the INSERT's column map,
// the UPDATE's assigned columns and the WHERE's scan with its probe keys.
func init() { checkPlanHit = recompileHit }

// parses counts the engine's parses: ParseCount reads it, for the tests
// outside the package that a cached SELECT is never parsed.
var parses atomic.Int64

func init() {
	parse := parseTokens
	parseTokens = func(toks []lexer.Token) ([]parser.Statement, error) {
		parses.Add(1)
		return parse(toks)
	}
}

// ParseCount is the number of scripts the engine has parsed.
func ParseCount() int64 { return parses.Load() }

func recompileHit(e *Engine, sql string, slots []sqltypes.Value, hit *planEntry) error {
	s, err := parser.Parse(sql)
	if err != nil {
		return fmt.Errorf("plan cache: hit for %q, which does not parse: %w", sql, err)
	}
	if want := parser.AppendSlotValues(nil, s); !slices.Equal(slots, want) {
		return fmt.Errorf("plan cache: hit for %s binds slots %v, its own are %v", s, slots, want)
	}
	if text := string(parser.AppendWithSlots(nil, hit.stmt(), slots, -1)); text != s.String() {
		return fmt.Errorf("plan cache: hit for %s serves another statement: %s", s, text)
	}
	if hit.write != nil {
		return recompileWrite(e, s, hit)
	}
	sel, ok := s.(*parser.Select)
	if !ok {
		return fmt.Errorf("plan cache: hit for %q, a %T", sql, s)
	}
	fresh, err := e.compileFresh(sel, hit.opts)
	switch {
	case e.cat.Version() != hit.version:
		return nil // the catalog moved since the lookup: the plans may rightly differ
	case err != nil:
		return fmt.Errorf("plan cache: stale hit for %s: a fresh compile fails: %w", sel, err)
	}
	switch hitText, freshText := maskedExplain(hit.opt), maskedExplain(fresh); {
	case hitText != freshText:
		return fmt.Errorf("plan cache: stale hit for %s:\ncached:\n%sfresh:\n%s", sel, hitText, freshText)
	case hit.opt.Predicted != fresh.Predicted:
		return fmt.Errorf("plan cache: stale hit for %s: predicted %+v, fresh %+v", sel, hit.opt.Predicted, fresh.Predicted)
	case hit.opt.Bounded != fresh.Bounded || !slices.Equal(hit.opt.Warnings, fresh.Warnings):
		return fmt.Errorf("plan cache: stale hit for %s: bounded %v %q, fresh %v %q",
			sel, hit.opt.Bounded, hit.opt.Warnings, fresh.Bounded, fresh.Warnings)
	case !slices.Equal(hit.cols, colNames(fresh)):
		return fmt.Errorf("plan cache: stale hit for %s: columns %q, fresh %q", sel, hit.cols, colNames(fresh))
	}
	return nil
}

// recompileWrite vets hit, a DML entry serving s, against s compiled
// afresh: the same statement kind, table, column map, assigned columns
// and WHERE scan with its probe keys, slot literals masked.
func recompileWrite(e *Engine, s parser.Statement, hit *planEntry) error {
	w := hit.write
	if fmt.Sprintf("%T", s) != fmt.Sprintf("%T", w.stmt) {
		return fmt.Errorf("plan cache: hit for %s, a %T, served by a %T", s, s, w.stmt)
	}
	fresh, err := e.compileWrite(s)
	switch {
	case e.cat.SchemaVersion() != hit.schema:
		return nil // DDL ran since the lookup: the compiles may rightly differ
	case err != nil:
		return fmt.Errorf("plan cache: stale hit for %s: a fresh compile fails: %w", s, err)
	case fresh.table != w.table:
		return fmt.Errorf("plan cache: stale hit for %s: table %p, fresh %p", s, w.table, fresh.table)
	case !slices.Equal(fresh.cols, w.cols) || !slices.EqualFunc(fresh.blank, w.blank, sqltypes.Identical):
		return fmt.Errorf("plan cache: stale hit for %s: columns %v %v, fresh %v %v", s, w.cols, w.blank, fresh.cols, fresh.blank)
	case !slices.Equal(fresh.set, w.set):
		return fmt.Errorf("plan cache: stale hit for %s: assigns %v, fresh %v", s, w.set, fresh.set)
	case (fresh.scan == nil) != (w.scan == nil):
		return fmt.Errorf("plan cache: stale hit for %s: scan %v, fresh %v", s, w.scan, fresh.scan)
	case fresh.scan != nil && maskedNode(fresh.scan) != maskedNode(w.scan):
		return fmt.Errorf("plan cache: stale hit for %s: scan %s, fresh %s", s, maskedNode(w.scan), maskedNode(fresh.scan))
	}
	return nil
}

// maskedExplain renders opt's plan as EXPLAIN does, each node with its
// exact cost and a scan with its probe keys, every slot literal printed
// as its kind.
func maskedExplain(opt *optimizer.Result) string {
	var sb strings.Builder
	var walk func(n plan.Node, depth int)
	walk = func(n plan.Node, depth int) {
		fmt.Fprintf(&sb, "%s%s  %+v\n", strings.Repeat("  ", depth), maskedNode(n), opt.Costs[n])
		for _, c := range n.Children() {
			walk(c, depth+1)
		}
	}
	walk(opt.Root, 0)
	return sb.String()
}

// maskedNode is n's EXPLAIN line, a scan's with its probe keys, every slot
// literal printed as its kind.
func maskedNode(n plan.Node) string {
	line := n.Explain()
	var where []parser.Expr
	switch x := n.(type) {
	case *plan.Scan:
		where = []parser.Expr{x.Filter}
		cols := make([]string, 0, len(x.ProbeKeys))
		for col, lit := range x.ProbeKeys {
			cols = append(cols, col+"="+maskedExpr(lit))
		}
		sort.Strings(cols)
		line += " keys=" + strings.Join(cols, ",")
	case *plan.CrowdProbe:
		where = []parser.Expr{x.Filter}
	case *plan.Filter:
		where = []parser.Expr{x.Cond, x.Pre}
	case *plan.Join:
		where = []parser.Expr{x.On}
	}
	for _, e := range where {
		if e != nil {
			line = strings.ReplaceAll(line, e.String(), maskedExpr(e))
		}
	}
	return line
}

// maskedExpr prints e with each slot literal as a stand-in of its kind.
func maskedExpr(e parser.Expr) string {
	var masks []sqltypes.Value
	parser.WalkExprs(e, func(x parser.Expr) {
		if l, ok := x.(*parser.Literal); ok && l.Slot > 0 {
			for len(masks) < l.Slot {
				masks = append(masks, sqltypes.Value{})
			}
			masks[l.Slot-1] = kindMasks[l.Val.Kind()]
		}
	})
	text := parser.AppendWithSlots(nil, &parser.Select{Items: []parser.SelectItem{{Expr: e}}, Limit: -1}, masks, -1)
	return strings.TrimPrefix(string(text), "SELECT ")
}

// kindMasks stand in for a slot value of each kind.
var kindMasks = [...]sqltypes.Value{
	sqltypes.KindNull: sqltypes.Null(), sqltypes.KindCNull: sqltypes.CNull(),
	sqltypes.KindString: sqltypes.NewString("?STRING"), sqltypes.KindInt: sqltypes.NewString("?INTEGER"),
	sqltypes.KindFloat: sqltypes.NewString("?FLOAT"), sqltypes.KindBool: sqltypes.NewString("?BOOLEAN"),
}
