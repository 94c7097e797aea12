package core

import (
	"encoding/binary"
	"slices"
	"sync"

	"crowddb/internal/lexer"
	"crowddb/internal/optimizer"
	"crowddb/internal/parser"
	"crowddb/internal/plan"
	"crowddb/internal/sqltypes"
)

// The plan cache compiles each SELECT shape once, and a statement of a
// cached shape is not even parsed. Its key is the statement's tokens as
// the lexer makes them (keywords upper-cased, spacing and comments gone),
// each literal of the outermost WHERE — outside its IN-subqueries — a slot
// kept as its value's kind only, the way pg_stat_statements "jumbles" a
// query. Every other token is part of the key verbatim: plan.Build matches
// the select list, GROUP BY, HAVING and ORDER BY by their text, and a
// LIMIT or a subquery's literal is compiled into the plan. Two statements
// with one key parse to one tree but for their slot values, because the
// parser treats a literal token by its kind alone; so a cached plan serves
// a statement once it reads the slots from that statement's own literal
// tokens (exec.Ctx.UseSlots) — negated where the tree compiled first
// negated the literal (`-5`) — and a plan is never specialised to the
// literals it was compiled with.
//
// Engine.Prepare is the one intake: it lexes a script and, for one SELECT
// whose key the cache holds, goes from the tokens to the cached entry —
// its slot tokens found by parser.ScanSlots — and any other script it
// parses. A parsed SELECT keeps its tokens (parser.Select.Tokens) and its
// slot literals know their tokens and whether a minus was folded into them
// (parser.Select.AppendSlotRefs), so it finds its entry, or makes it, when
// it compiles. FuzzParse holds the scan to the parser's slots.
//
// An entry serves while nothing the optimizer reads has changed: the
// catalog version read before it compiled (every DDL and every statistic
// that takes a new value moves it) and the optimizer options with their
// cost inputs, compared by value. A stale entry counts as a miss: the
// entry's statement compiles afresh and is written over it in place.
// Errors are never cached; the cache hands out copies of its entries, and
// what an entry was made of — its tree, plan and columns — is never
// modified (goroutines share it). EXPLAIN, DML and IN subqueries compile
// without the cache: they print or rebuild literals.

// planCacheCap bounds the cached shapes; a new shape past it empties the
// cache.
const planCacheCap = 256

// planEntry is a plan with what it was compiled against. The cache holds
// each under its key and hands out copies: a stale entry is overwritten in
// place, and what one was made of (sel, neg, opt, cols) never changes.
type planEntry struct {
	key string
	// sel is the statement first compiled under key, without its tokens:
	// every statement of the key is its tree with other slot values.
	sel *parser.Select
	// neg lists the slots (from 0) whose value is their literal token's
	// negated: a unary minus folded into the literal.
	neg     []int
	opt     *optimizer.Result
	cols    []string // the result's column names
	version uint64
	opts    optimizer.Options
}

// current reports whether en's plan is the one a compile against version
// and opts would make.
func (en *planEntry) current(version uint64, opts optimizer.Options) bool {
	return en.version == version && en.opts == opts
}

type planCache struct {
	mu      sync.Mutex
	entries map[string]*planEntry
}

// get returns a copy of the entry cached under key, current or not.
func (c *planCache) get(key []byte) (planEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if en := c.entries[string(key)]; en != nil {
		return *en, true
	}
	return planEntry{}, false
}

// put caches en under its key: over a stale entry in place, else as a new
// key.
func (c *planCache) put(en planEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old := c.entries[en.key]; old != nil {
		*old = en
		return
	}
	if c.entries == nil || len(c.entries) >= planCacheCap {
		c.entries = make(map[string]*planEntry)
	}
	fresh := en // on the heap only for a new key
	c.entries[en.key] = &fresh
}

// checkPlanHit, when set, vets every plan-cache hit before it runs: sql is
// the statement's text and slots the values the hit binds (the package's
// tests parse and compile sql afresh and compare).
var checkPlanHit func(e *Engine, sql string, slots []sqltypes.Value, hit *planEntry) error

// keyBuf is the scratch a statement is keyed in: its tokens, the indexes
// of its slot tokens, its key and slot values. A pool keeps it off the
// per-statement bill.
type keyBuf struct {
	toks  []lexer.Token
	idx   []int
	refs  []parser.SlotRef
	key   []byte
	slots []sqltypes.Value
}

var keyBufs = sync.Pool{New: func() any { return new(keyBuf) }}

// maxPooledTokens bounds the token buffer a keyBuf goes back to the pool
// with.
const maxPooledTokens = 1 << 10

// slotMark starts a slot's part of a key; a token's part starts with its
// lexer.Kind.
const slotMark = 0xff

// appendKey appends the plan-cache key of toks, one SELECT's tokens with
// its slot tokens at the indexes idx, to key, and the values of the slot
// tokens, in slot order, to slots. ok is false when a slot token has no
// value (an INTEGER out of range): the statement does not parse.
func appendKey(key []byte, slots []sqltypes.Value, toks []lexer.Token, idx []int) (_ []byte, _ []sqltypes.Value, ok bool) {
	for i, t := range toks {
		if len(idx) > 0 && idx[0] == i {
			idx = idx[1:]
			v, err := parser.LiteralValue(t)
			if err != nil {
				return key, slots, false
			}
			key = append(key, slotMark, byte(v.Kind()))
			slots = append(slots, v)
			continue
		}
		key = append(key, byte(t.Kind))
		key = binary.AppendUvarint(key, uint64(len(t.Value)))
		key = append(key, t.Value...)
	}
	return key, slots, true
}

// oneSelect returns the tokens of the statement toks holds when it is one
// SELECT, nil otherwise; semicolons around it are no part of it.
func oneSelect(toks []lexer.Token) []lexer.Token {
	start, end := 0, len(toks)
	for start < end && isSemicolon(toks[start]) {
		start++
	}
	for end > start && isSemicolon(toks[end-1]) {
		end--
	}
	if start == end || toks[start].Kind != lexer.Keyword || toks[start].Value != "SELECT" ||
		slices.ContainsFunc(toks[start:end], isSemicolon) {
		return nil
	}
	return toks[start:end]
}

func isSemicolon(t lexer.Token) bool { return t.Kind == lexer.Symbol && t.Value == ";" }

// negate is the value of a minus folded into a literal of v's value.
func negate(v sqltypes.Value) sqltypes.Value {
	switch v.Kind() {
	case sqltypes.KindInt:
		return sqltypes.NewInt(-v.Int())
	case sqltypes.KindFloat:
		return sqltypes.NewFloat(-v.Float())
	}
	return v
}

// cachedSelect is a SELECT the intake served from the plan cache: a copy
// of the entry its key found and the statement's own slot values.
type cachedSelect struct {
	en     planEntry
	slots  []sqltypes.Value // in inline when they fit
	inline [4]sqltypes.Value
	sql    string
}

// AppendText appends the statement's text: its entry's tree printed with
// the statement's slot values.
func (c *cachedSelect) AppendText(b []byte) ([]byte, error) {
	return parser.AppendWithSlots(b, c.en.sel, c.slots, -1), nil
}

// AppendTextUpTo is AppendText stopped past n bytes
// (obs.TextPrefixAppender).
func (c *cachedSelect) AppendTextUpTo(b []byte, n int) []byte {
	return parser.AppendWithSlots(b, c.en.sel, c.slots, n)
}

// lookup keys toks, one SELECT's tokens not parsed, into kb — its slot
// tokens found by parser.ScanSlots — and returns a copy of the entry
// cached under the key, current or not, with kb.slots the statement's
// slot values. found is false when the cache holds no entry for the key
// or the tokens have none (a slot token has no value).
func (e *Engine) lookup(kb *keyBuf, toks []lexer.Token) (en planEntry, found bool) {
	kb.idx = parser.ScanSlots(kb.idx[:0], toks)
	kb.key, kb.slots, found = appendKey(kb.key[:0], kb.slots[:0], toks, kb.idx)
	if !found {
		return planEntry{}, false
	}
	if en, found = e.plans.get(kb.key); !found {
		return planEntry{}, false
	}
	for _, i := range en.neg {
		kb.slots[i] = negate(kb.slots[i])
	}
	return en, true
}

// serve returns the entry cached under en's key while its plan is
// current — en, or one that replaced it since en was looked up — else
// en's statement compiled afresh and cached over it. A current entry is a
// hit, vetted by checkPlanHit against sql, the statement's text, and
// slots, its slot values.
func (e *Engine) serve(en planEntry, sql string, slots []sqltypes.Value) (planEntry, error) {
	version, opts := e.cat.Version(), e.optimizerOptions()
	if !en.current(version, opts) {
		e.plans.mu.Lock()
		if cur := e.plans.entries[en.key]; cur != nil {
			en = *cur
		}
		e.plans.mu.Unlock()
	}
	if en.current(version, opts) {
		e.obsm.planHits.Inc()
		if checkPlanHit != nil {
			hit := en // on the heap only when vetted
			if err := checkPlanHit(e, sql, slots, &hit); err != nil {
				return planEntry{}, err
			}
		}
		return en, nil
	}
	e.obsm.planMisses.Inc()
	opt, err := e.compileFresh(en.sel, opts)
	if err != nil {
		return planEntry{}, err
	}
	en.opt, en.cols, en.version, en.opts = opt, colNames(opt), version, opts
	e.plans.put(en)
	return en, nil
}

// compile returns the entry that serves s, a parsed SELECT — the plan
// cache's while it is current, else a fresh compile that is then cached —
// and appends s's slot values to slots. s is keyed on its tokens with its
// slot tokens where the parser found them (Select.AppendSlotRefs); a
// SELECT without tokens compiles without the cache.
func (e *Engine) compile(s *parser.Select, slots []sqltypes.Value) (planEntry, []sqltypes.Value, error) {
	n := len(slots)
	slots = parser.AppendSlotValues(slots, s.Where)
	toks := s.Tokens()
	if toks == nil {
		e.obsm.planMisses.Inc()
		en, err := e.compileEntry(s)
		return en, slots, err
	}
	kb := keyBufs.Get().(*keyBuf)
	defer keyBufs.Put(kb)
	kb.refs = s.AppendSlotRefs(kb.refs[:0])
	kb.idx = kb.idx[:0]
	for _, r := range kb.refs {
		kb.idx = append(kb.idx, r.Tok)
	}
	var keyed bool
	kb.key, kb.slots, keyed = appendKey(kb.key[:0], kb.slots[:0], toks, kb.idx)
	if keyed {
		if en, ok := e.plans.get(kb.key); ok {
			sql := ""
			if checkPlanHit != nil {
				sql = s.String()
			}
			en, err := e.serve(en, sql, slots[n:])
			return en, slots, err
		}
	}
	e.obsm.planMisses.Inc()
	en, err := e.compileEntry(s)
	if err != nil || !keyed {
		return en, slots, err
	}
	en.key, en.sel = string(kb.key), s.WithoutTokens()
	for i, r := range kb.refs {
		if r.Neg {
			en.neg = append(en.neg, i)
		}
	}
	e.plans.put(en)
	return en, slots, nil
}

// compileEntry compiles s afresh into an entry that is not cached.
func (e *Engine) compileEntry(s *parser.Select) (planEntry, error) {
	version, opts := e.cat.Version(), e.optimizerOptions()
	opt, err := e.compileFresh(s, opts)
	if err != nil {
		return planEntry{}, err
	}
	return planEntry{sel: s, opt: opt, cols: colNames(opt), version: version, opts: opts}, nil
}

// compileFresh builds and optimizes s's plan, bypassing the cache.
func (e *Engine) compileFresh(s *parser.Select, opts optimizer.Options) (*optimizer.Result, error) {
	root, err := plan.Build(s, e.cat)
	if err != nil {
		return nil, err
	}
	return optimizer.Optimize(root, e.cat, opts)
}

// colNames are the names of opt's result columns.
func colNames(opt *optimizer.Result) []string {
	schema := opt.Root.Schema()
	cols := make([]string, len(schema))
	for i, c := range schema {
		cols[i] = c.Name
	}
	return cols
}
