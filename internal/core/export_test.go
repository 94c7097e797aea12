package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"crowddb/internal/optimizer"
	"crowddb/internal/parser"
	"crowddb/internal/plan"
)

// The plan cache's equivalence net is on for every test of this package:
// each hit is compiled afresh as well, and its statement fails unless the
// two plans agree on the EXPLAIN text with slot literals masked (costs and
// probe keys included), the forecast, boundedness and warnings.
func init() { checkPlanHit = recompileHit }

func recompileHit(e *Engine, s *parser.Select, hit planEntry) error {
	fresh, err := e.compileFresh(s, hit.opts)
	switch {
	case e.cat.Version() != hit.version:
		return nil // the catalog moved since the lookup: the plans may rightly differ
	case err != nil:
		return fmt.Errorf("plan cache: stale hit for %s: a fresh compile fails: %w", s, err)
	}
	switch hitText, freshText := maskedExplain(hit.opt), maskedExplain(fresh); {
	case hitText != freshText:
		return fmt.Errorf("plan cache: stale hit for %s:\ncached:\n%sfresh:\n%s", s, hitText, freshText)
	case hit.opt.Predicted != fresh.Predicted:
		return fmt.Errorf("plan cache: stale hit for %s: predicted %+v, fresh %+v", s, hit.opt.Predicted, fresh.Predicted)
	case hit.opt.Bounded != fresh.Bounded || !slices.Equal(hit.opt.Warnings, fresh.Warnings):
		return fmt.Errorf("plan cache: stale hit for %s: bounded %v %q, fresh %v %q",
			s, hit.opt.Bounded, hit.opt.Warnings, fresh.Bounded, fresh.Warnings)
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
		fmt.Fprintf(&sb, "%s%s  %+v\n", strings.Repeat("  ", depth), line, opt.Costs[n])
		for _, c := range n.Children() {
			walk(c, depth+1)
		}
	}
	walk(opt.Root, 0)
	return sb.String()
}

// maskedExpr prints e with each slot literal as its kind.
func maskedExpr(e parser.Expr) string {
	shape := parser.AppendShape(nil, &parser.Select{Items: []parser.SelectItem{{Expr: e}}, Limit: -1})
	return strings.TrimPrefix(string(shape), "SELECT ")
}
