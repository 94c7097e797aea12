package core

import (
	"sync"

	"crowddb/internal/optimizer"
	"crowddb/internal/parser"
	"crowddb/internal/plan"
)

// The plan cache compiles each SELECT shape once. Its key is the shape
// (parser.AppendShape): the statement as the printer prints it, each
// literal of the outermost WHERE a slot printed as its kind. Every other
// literal is part of the key verbatim, because plan.Build matches the
// select list, GROUP BY, HAVING and ORDER BY by their text. A slot's value
// is read at execution from the executing statement's own literal
// (exec.Ctx.UseSlots), so a plan is never specialised to the literals it
// was compiled with.
//
// An entry serves while nothing the optimizer reads has changed: the
// catalog version read before it compiled (every DDL and every statistic
// that takes a new value moves it) and the optimizer options with their
// cost inputs, compared by value. A stale entry counts as a miss; the
// fresh compile takes its place. Errors are never cached, a cached plan is
// never modified (goroutines share it), and EXPLAIN, DML and IN
// subqueries compile without the cache: they print or rebuild literals.

// planCacheCap bounds the cached shapes; a new shape past it empties the
// cache.
const planCacheCap = 256

// planEntry is a plan with what it was compiled against.
type planEntry struct {
	opt     *optimizer.Result
	version uint64
	opts    optimizer.Options
}

type planCache struct {
	mu      sync.Mutex
	entries map[string]*planEntry
}

// get returns the entry cached for shape while it is current.
func (c *planCache) get(shape []byte, version uint64, opts optimizer.Options) (planEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if en := c.entries[string(shape)]; en != nil && en.version == version && en.opts == opts {
		return *en, true
	}
	return planEntry{}, false
}

// put caches en for shape: over a stale entry in place, else as a new
// shape.
func (c *planCache) put(shape []byte, en planEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old := c.entries[string(shape)]; old != nil {
		*old = en
		return
	}
	if c.entries == nil || len(c.entries) >= planCacheCap {
		c.entries = make(map[string]*planEntry)
	}
	fresh := en // on the heap only for a new shape
	c.entries[string(shape)] = &fresh
}

// checkPlanHit, when set, vets every plan-cache hit before it runs (the
// package's tests compare it with a fresh compile).
var checkPlanHit func(e *Engine, s *parser.Select, hit planEntry) error

// shapes are the buffers a compile prints a statement's shape into: the
// printer's appends put it on the heap, and a pool keeps that off the
// per-statement bill.
var shapes = sync.Pool{New: func() any { return new(shapeBuf) }}

type shapeBuf struct{ shape []byte }

// compile returns s's plan: the cached plan of s's shape while it is
// current, else a fresh compile that is then cached. Its execution binds
// s's slots (exec.Ctx.UseSlots).
func (e *Engine) compile(s *parser.Select) (*optimizer.Result, error) {
	sb := shapes.Get().(*shapeBuf)
	defer shapes.Put(sb)
	sb.shape = parser.AppendShape(sb.shape[:0], s)
	version, opts := e.cat.Version(), e.optimizerOptions()
	if en, ok := e.plans.get(sb.shape, version, opts); ok {
		e.obsm.planHits.Inc()
		if checkPlanHit != nil {
			if err := checkPlanHit(e, s, en); err != nil {
				return nil, err
			}
		}
		return en.opt, nil
	}
	e.obsm.planMisses.Inc()
	opt, err := e.compileFresh(s, opts)
	if err != nil {
		return nil, err
	}
	e.plans.put(sb.shape, planEntry{opt: opt, version: version, opts: opts})
	return opt, nil
}

// compileFresh builds and optimizes s's plan, bypassing the cache.
func (e *Engine) compileFresh(s *parser.Select, opts optimizer.Options) (*optimizer.Result, error) {
	root, err := plan.Build(s, e.cat)
	if err != nil {
		return nil, err
	}
	return optimizer.Optimize(root, e.cat, opts)
}
