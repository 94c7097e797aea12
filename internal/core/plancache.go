package core

import (
	"encoding/binary"
	"slices"
	"sync"
	"sync/atomic"

	"crowddb/internal/exec"
	"crowddb/internal/lexer"
	"crowddb/internal/obs"
	"crowddb/internal/optimizer"
	"crowddb/internal/parser"
	"crowddb/internal/plan"
	"crowddb/internal/sqltypes"
	"crowddb/internal/storage"
)

// The plan cache compiles each statement shape once — a SELECT, an INSERT
// … VALUES, an UPDATE or a DELETE — and a statement of a cached shape is
// not even parsed. Its key is the statement's tokens as the lexer makes
// them (keywords upper-cased, spacing and comments gone), each literal of
// its slotted clauses — a SELECT's outermost WHERE, an INSERT's VALUES
// rows, an UPDATE's SET values and WHERE, a DELETE's WHERE, outside their
// IN-subqueries — a slot kept as its value's kind only, the way
// pg_stat_statements "jumbles" a query. Every other token is part of the
// key verbatim: plan.Build matches the select list, GROUP BY, HAVING and
// ORDER BY by their text, and a LIMIT or a subquery's literal is compiled
// into the plan. Two statements with one key parse to one tree but for
// their slot values, because the parser treats a literal token by its
// kind alone; so a cached entry serves a statement once it reads the
// slots from that statement's own literal tokens (exec.Ctx.UseSlots) —
// negated where the tree compiled first negated the literal (`-5`) — and
// an entry is never specialised to the literals it was compiled with.
//
// Engine.Prepare is the one intake: it splits a script's tokens at its
// semicolons and keys each SELECT, INSERT, UPDATE and DELETE once, its
// slot tokens found by parser.ScanSlots. A statement whose key the cache
// holds runs on that entry unparsed, in a script of several statements
// too; a script is parsed only when one of its statements is not cached,
// and such a statement compiles and is cached under the key taken at
// intake. A statement parsed elsewhere is keyed on the tokens it keeps
// (Tokens). FuzzParse holds the scan to the parser's slots (AppendSlotRefs);
// a statement they disagree on runs uncached.
//
// A SELECT's entry serves as it is, a hit, while nothing the optimizer
// reads has changed: the catalog version read before it compiled (every
// DDL and every statistic that takes a new value moves it) and the
// optimizer options with their cost inputs, compared by value. An entry
// that only statistics or cost inputs went stale for — the catalog's
// schema version and every other option as it compiled with — is
// re-priced when its plan joins nothing: join order and a join's
// build-side estimate are the only rewrites that read the cost model, so
// its tree is the one a compile would build now, and only the costs,
// forecast and warnings are priced again (optimizer.Reprice). Any other
// stale entry counts as a miss: the entry's statement compiles afresh. A
// re-priced or recompiled entry is written over the old one in place.
// Errors are never cached; the cache hands out copies of its entries, and
// what an entry was made of — its tree, plan and columns — is never
// modified (goroutines share it). EXPLAIN and IN subqueries compile
// without the cache: they print or rebuild literals.
//
// A DML statement's entry (writePlan) holds its table, an INSERT's column
// map, an UPDATE's assigned columns and the Scan of an UPDATE's or
// DELETE's WHERE, its probe keys derived once over slot literals
// (optimizer.MatchScan). It reads no statistic and no option, so only DDL
// — the catalog's schema version — makes it stale. What the entry caches
// is the statement's compile only: each statement still takes
// Engine.writeMu, runs in a Txn of its own and commits it.
//
// A hit does not build its operator tree either. Each key keeps one
// executor: its entry's plan built into an operator tree and bound once
// (exec.Build) in the executor's own context, whose slot storage the
// tree's slot literals point into — for a DML entry, its matching read
// (exec.Matcher) and its SET or VALUES expressions bound the same way. A
// statement takes the executor, copies its slot values into that storage
// (exec.Ctx.UseSlots), runs the tree and puts it back; a statement that
// finds none kept — another statement of the key is running on it —
// builds its own, and an executor built from a tree the entry no longer
// holds is dropped: a re-priced entry holds the same tree, and its
// executor serves on. The slot is made with the key's first entry and
// kept when a stale entry is overwritten, so every copy of the entry
// reaches it. A miss's tree is kept too; EXPLAIN ANALYZE's and an
// uncached statement's are dropped after they close.

// planCacheCap bounds the cached shapes; a new shape past it empties the
// cache.
const planCacheCap = 256

// planEntry is a plan with what it was compiled against. The cache holds
// each under its key (kept.key) and hands out copies: a stale entry is
// overwritten in place, and what one was made of (sel, neg, opt, cols)
// never changes.
type planEntry struct {
	// sel is the SELECT first compiled under the key, without its tokens:
	// every statement of the key is its tree with other slot values. It
	// is nil for a DML entry, whose write holds its statement.
	sel *parser.Select
	// neg lists the slots (from 0) whose value is their literal token's
	// negated: a unary minus folded into the literal.
	neg  []int
	opt  *optimizer.Result
	cols []string // the result's column names
	// version and schema are the catalog's Version and SchemaVersion read
	// before opt was compiled or last priced.
	version, schema uint64
	opts            optimizer.Options
	// kept is the executor slot of the entry's key, and holds the key:
	// every copy of the entry, and every entry written over it, reaches
	// the one slot. It is nil for an entry the cache does not hold.
	kept *keptExecutor
	// write is a DML entry's compiled statement, nil for a SELECT's. A
	// DML entry reads schema alone: opt, cols, version and opts are unset.
	write *writePlan
}

// stmt is the statement en was compiled from.
func (en *planEntry) stmt() parser.Statement {
	if en.write != nil {
		return en.write.stmt
	}
	return en.sel
}

// compiled reports whether en holds an entry.
func (en *planEntry) compiled() bool { return en.sel != nil || en.write != nil }

// current reports whether en's plan is the one a compile would make
// against the catalog's version and opts — a DML entry's, against the
// catalog's schema version.
func (en *planEntry) current(version, schema uint64, opts optimizer.Options) bool {
	if en.write != nil {
		return en.schema == schema
	}
	return en.version == version && en.opts == opts
}

// sameTree reports whether a compile against schema and opts would make
// en's plan tree, were the tree's shape to read no statistic or cost
// input: no DDL since en compiled, and no option but the cost inputs
// moved. Whether the shape reads them is optimizer.Reprice's to say.
func (en *planEntry) sameTree(schema uint64, opts optimizer.Options) bool {
	was := en.opts
	was.Cost = opts.Cost
	return en.schema == schema && was == opts
}

type planCache struct {
	mu      sync.Mutex
	entries map[string]*cachedPlan
}

// cachedPlan is one key's entry and the executor kept for it, made
// together.
type cachedPlan struct {
	planEntry
	slot keptExecutor
}

// getEntry returns a copy of the entry c holds under key, current or not.
// A key held in bytes is looked up without a string made of it.
func getEntry[K string | []byte](c *planCache, key K) (planEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cp := c.entries[string(key)]; cp != nil {
		return cp.planEntry, true
	}
	return planEntry{}, false
}

// put caches en under key — over a stale entry in place, keeping its
// executor slot, else as a new key with an empty one — and returns the
// key's slot.
func (c *planCache) put(key string, en planEntry) *keptExecutor {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old := c.entries[key]; old != nil {
		en.kept = old.kept
		old.planEntry = en
		return en.kept
	}
	if c.entries == nil || len(c.entries) >= planCacheCap {
		c.entries = make(map[string]*cachedPlan)
	}
	fresh := &cachedPlan{planEntry: en, slot: keptExecutor{key: key}} // on the heap only for a new key
	fresh.kept = &fresh.slot
	c.entries[key] = fresh
	return fresh.kept
}

// An executor is a plan's operator tree, built and bound once
// (exec.Build) in the executor's own context, whose slot storage the
// tree's slot literals point into. A statement of the plan's shape copies
// its slot values there, runs the tree — Open, NextBatch, Close — and puts
// the executor back for the next one. A DML entry's executor holds no
// tree: its matching read and the expressions it writes are bound in ctx.
type executor struct {
	plan    plan.Node // the plan tree the operator tree was built from
	shelled bool      // ctx.Instrumented() when the tree was built
	ctx     exec.Ctx
	root    exec.Operator

	// write is the DML entry the executor was bound for; match is its
	// WHERE's matching read (UPDATE, DELETE), values its SET values or
	// the values of its VALUES rows that are no bare literal, in text
	// order, and ids the matched rows'. slotted says whether anything
	// bound reads the slot storage.
	write   *writePlan
	match   *exec.Matcher
	values  []exec.RowExpr
	ids     []storage.RowID
	slotted bool
}

// keptExecutor holds the executor kept for one plan-cache key while no
// statement runs on it, and the key. One is enough: in bench/perf's
// workloads (two clients), a statement found another of its key running
// in 4–14 % of point_read's statements and at most 23 % of any workload's,
// never two others; each time, one extra tree is built, 0.3 allocations a
// point_read statement.
type keptExecutor struct {
	key  string
	idle atomic.Pointer[executor]
}

// take returns the kept executor, for the caller alone, or nil. A nil k
// keeps none.
func (k *keptExecutor) take() *executor {
	if k == nil {
		return nil
	}
	return k.idle.Swap(nil)
}

// put keeps x, whose tree is closed, over any executor put since x was
// taken. A nil k keeps none.
func (k *keptExecutor) put(x *executor) {
	if k != nil {
		k.idle.Store(x)
	}
}

// checkPlanHit, when set, vets every plan-cache hit and every re-priced
// entry before it runs: sql is the statement's text and slots the values
// the entry binds (the package's tests parse and compile sql afresh and
// compare).
var checkPlanHit func(e *Engine, sql string, slots []sqltypes.Value, hit *planEntry) error

// keyBuf is the scratch a script is keyed in: its tokens, and a
// statement's slot token indexes, key and slot values. A pool keeps it off
// the per-statement bill.
type keyBuf struct {
	toks  []lexer.Token
	idx   []int
	key   []byte
	slots []sqltypes.Value
}

var keyBufs = sync.Pool{New: func() any { return new(keyBuf) }}

// maxPooledTokens bounds the token buffer a keyBuf goes back to the pool
// with, and the slot and key buffers in proportion: a bulk INSERT's grow
// far past what the usual statement needs.
const maxPooledTokens = 1 << 10

// release puts kb back in the pool, without a buffer grown past the
// bound.
func (kb *keyBuf) release() {
	if cap(kb.toks) > maxPooledTokens {
		kb.toks = nil
	}
	if cap(kb.idx) > maxPooledTokens || cap(kb.slots) > maxPooledTokens {
		kb.idx, kb.slots = nil, nil
	}
	if cap(kb.key) > 4*maxPooledTokens {
		kb.key = nil
	}
	keyBufs.Put(kb)
}

// slotMark starts a slot's part of a key; a token's part starts with its
// lexer.Kind.
const slotMark = 0xff

// appendKey appends the plan-cache key of toks, one statement's tokens
// with its slot tokens at the indexes idx, to key, and the values of the slot
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

// keyed reports whether the cache keys toks, one statement's tokens: a
// SELECT, INSERT, UPDATE or DELETE.
func keyed(toks []lexer.Token) bool {
	switch t := toks[0]; t.Value {
	case "SELECT", "INSERT", "UPDATE", "DELETE":
		return t.Kind == lexer.Keyword
	}
	return false
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

// key keys toks, the tokens of st, a SELECT, INSERT, UPDATE or DELETE, in
// kb and looks the key up. st takes the entry found, its key and its slot
// values, negated where the entry's tree negated them; else its key alone
// — none when a slot token has no value (st does not parse).
func (e *Engine) key(kb *keyBuf, st *statement, toks []lexer.Token) {
	kb.idx = parser.ScanSlots(kb.idx[:0], toks)
	var ok bool
	if kb.key, kb.slots, ok = appendKey(kb.key[:0], kb.slots[:0], toks, kb.idx); !ok {
		return
	}
	en, found := getEntry(&e.plans, kb.key)
	if !found {
		st.key = string(kb.key)
		return
	}
	if st.tree == nil {
		st.tree = en.stmt()
	}
	st.en, st.key = en, en.kept.key
	st.slots = append(st.inline[:0], kb.slots...)
	for _, i := range en.neg {
		st.slots[i] = negate(st.slots[i])
	}
}

// intake takes s, a statement parsed outside Prepare, in as Prepare takes
// in a statement of a script: a SELECT, INSERT, UPDATE or DELETE is keyed
// on the tokens it keeps (Tokens); one that keeps none is not cached.
func (e *Engine) intake(st *statement, s parser.Statement) {
	st.tree = s
	if toks := tokensOf(s); toks != nil {
		kb := keyBufs.Get().(*keyBuf)
		e.key(kb, st, toks)
		kb.release()
	}
	if !st.en.compiled() {
		st.slots = parser.AppendSlotValues(st.inline[:0], s)
	}
}

// tokensOf is the tokens s was parsed from, nil when it keeps none.
func tokensOf(s parser.Statement) []lexer.Token {
	if k, ok := s.(interface{ Tokens() []lexer.Token }); ok {
		return k.Tokens()
	}
	return nil
}

// entry returns the entry that serves st, a SELECT, INSERT, UPDATE or
// DELETE: every statement reaches its plan here. A statement the intake
// found an entry for — or whose key another statement has cached since —
// is served from it (serve); any other compiles afresh (compile). A
// cached entry served is kept in st, and a statement served again —
// ExecAt after ForecastAt — re-checks it without counting its outcome
// again.
func (e *Engine) entry(st *statement) (en planEntry, err error) {
	if en = st.en; !en.compiled() && st.key != "" {
		en, _ = getEntry(&e.plans, st.key)
	}
	if en.compiled() {
		en, err = e.serve(st, en)
	} else {
		en, err = e.compile(st)
	}
	if err == nil && en.kept != nil {
		st.en = en
	}
	st.served = true
	return en, err
}

// count counts c, st's plan-cache outcome, unless st was served before.
func count(st *statement, c *obs.Counter) {
	if !st.served {
		c.Inc()
	}
}

// serve returns the entry that serves st from en, an entry of st's key:
// en, or the entry that replaced it in the cache since, while its plan is
// current — a hit. Otherwise, for a SELECT when only statistics or cost
// inputs moved and the plan's tree reads none of them
// (optimizer.Reprice), the entry re-priced: its tree, and so its kept
// executor, stay. Otherwise en's statement compiled afresh, a miss. A DML
// entry reads the schema alone, so it goes stale on DDL only. A re-priced
// or recompiled entry is cached over the old one in place. A hit and a
// re-price are vetted by checkPlanHit.
func (e *Engine) serve(st *statement, en planEntry) (planEntry, error) {
	var version uint64
	var opts optimizer.Options
	if en.write == nil {
		version, opts = e.cat.Version(), e.optimizerOptions()
	}
	schema := e.cat.SchemaVersion() // after version: a DDL moves schema first
	if !en.current(version, schema, opts) {
		if cur, ok := getEntry(&e.plans, en.kept.key); ok {
			en = cur
		}
	}
	if en.current(version, schema, opts) {
		count(st, e.obsm.planHits)
		return e.vetted(st, en)
	}
	if en.write == nil && en.sameTree(schema, opts) {
		if opt, ok, err := optimizer.Reprice(en.opt, opts); ok {
			count(st, e.obsm.planReprices)
			if err != nil {
				return planEntry{}, err
			}
			en.opt, en.version, en.opts = opt, version, opts
			en.kept = e.plans.put(en.kept.key, en)
			return e.vetted(st, en)
		}
	}
	count(st, e.obsm.planMisses)
	fresh, err := e.compileEntry(en.stmt())
	if err != nil {
		return planEntry{}, err
	}
	fresh.neg = en.neg
	fresh.kept = e.plans.put(en.kept.key, fresh)
	return fresh, nil
}

// vetted returns en, a hit or a re-priced entry serving st, once
// checkPlanHit passes it.
func (e *Engine) vetted(st *statement, en planEntry) (planEntry, error) {
	if checkPlanHit != nil {
		sql := st.text
		if sql == "" {
			sql = st.tree.String()
		}
		hit := en // on the heap only when vetted
		if err := checkPlanHit(e, sql, slices.Clone(st.slots), &hit); err != nil {
			return planEntry{}, err
		}
	}
	return en, nil
}

// compile compiles st, a parsed statement no entry serves, afresh — a
// miss — and caches the entry under the key taken at intake, with the
// slots the parser folded a minus into read off the tree. A statement
// whose slot tokens the parser and parser.ScanSlots do not agree on runs
// uncached: its key may be another statement's.
func (e *Engine) compile(st *statement) (planEntry, error) {
	count(st, e.obsm.planMisses)
	neg, cache := slotNegs(st.tree)
	s := st.tree
	if cache = cache && st.key != ""; cache {
		s = parser.WithoutTokens(s)
	}
	en, err := e.compileEntry(s)
	if err == nil && cache {
		en.neg = neg
		en.kept = e.plans.put(st.key, en)
	}
	return en, err
}

// slotNegs returns the slots of s, a parsed statement, whose value is its
// token's negated, with ok set when the parser made s's slots of the
// tokens parser.ScanSlots finds in the tokens s keeps.
func slotNegs(s parser.Statement) (neg []int, ok bool) {
	refs, idx := parser.AppendSlotRefs(nil, s), parser.ScanSlots(nil, tokensOf(s))
	if len(refs) != len(idx) {
		return nil, false
	}
	for i, r := range refs {
		if r.Tok != idx[i] {
			return nil, false
		}
		if r.Neg {
			neg = append(neg, i)
		}
	}
	return neg, true
}

// compileEntry compiles s afresh into an entry that is not cached.
func (e *Engine) compileEntry(s parser.Statement) (planEntry, error) {
	sel, ok := s.(*parser.Select)
	if !ok {
		schema := e.cat.SchemaVersion()
		w, err := e.compileWrite(s)
		if err != nil {
			return planEntry{}, err
		}
		return planEntry{write: w, schema: schema}, nil
	}
	version, opts := e.cat.Version(), e.optimizerOptions()
	schema := e.cat.SchemaVersion()
	opt, err := e.compileFresh(sel, opts)
	if err != nil {
		return planEntry{}, err
	}
	return planEntry{sel: sel, opt: opt, cols: colNames(opt), version: version, schema: schema, opts: opts}, nil
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
