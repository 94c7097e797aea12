package parser

import (
	"fmt"
	"strconv"
	"strings"

	"crowddb/internal/lexer"
	"crowddb/internal/sqltypes"
)

// Parse parses a single CrowdSQL statement (a trailing semicolon is
// allowed). It is the entry point the engine uses per statement.
func Parse(src string) (Statement, error) {
	stmts, err := ParseAll(src)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("parser: expected one statement, got %d", len(stmts))
	}
	return stmts[0], nil
}

// ParseAll parses a semicolon-separated script into statements.
func ParseAll(src string) ([]Statement, error) {
	toks, err := lexer.Tokenize(src)
	if err != nil {
		return nil, err
	}
	return ParseTokens(toks)
}

// ParseTokens parses a script the lexer has tokenized. Each SELECT,
// INSERT, UPDATE and DELETE keeps its own run of toks (Tokens), so toks
// must not change while the statements live.
func ParseTokens(toks []lexer.Token) ([]Statement, error) {
	p := &parser{toks: toks}
	var stmts []Statement
	for {
		for p.acceptSymbol(";") {
		}
		if p.atEOF() {
			break
		}
		p.start = p.pos
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		if k, ok := s.(interface{ keep([]lexer.Token) }); ok {
			k.keep(toks[p.start:p.pos:p.pos])
		}
		stmts = append(stmts, s)
		if !p.acceptSymbol(";") && !p.atEOF() {
			return nil, p.errorf("expected ';' or end of input, got %s", p.peekDesc())
		}
	}
	if len(stmts) == 0 {
		return nil, fmt.Errorf("parser: empty input")
	}
	return stmts, nil
}

// ScanSlots appends to dst the indexes of the slot tokens of toks, one
// SELECT's, INSERT's, UPDATE's or DELETE's tokens, without parsing them:
// the literal tokens of its slotted clauses — a SELECT's outermost WHERE,
// an INSERT from VALUES on, an UPDATE from SET on, a DELETE's WHERE —
// outside their IN-subqueries, but for the NULL or CNULL of IS [NOT]
// NULL. They are the tokens of the slot literals the parser makes of toks
// (AppendSlotRefs), in slot order.
func ScanSlots(dst []int, toks []lexer.Token) []int {
	opens := "WHERE" // the keyword that opens the slotted clauses
	if len(toks) > 0 && toks[0].Kind == lexer.Keyword {
		switch toks[0].Value {
		case "INSERT":
			opens = "VALUES"
		case "UPDATE":
			opens = "SET"
		}
	}
	depth, sub := 0, 0 // parentheses open; the depth inside an IN-subquery, 0 outside one
	slotted := false   // inside the slotted clauses
	for i, t := range toks {
		switch t.Kind {
		case lexer.Symbol:
			switch t.Value {
			case "(":
				depth++
				if slotted && sub == 0 && i+1 < len(toks) && isKeyword(toks[i+1], "SELECT") {
					sub = depth
				}
			case ")":
				if depth == sub {
					sub = 0
				}
				depth--
			}
			continue
		case lexer.Keyword:
			if depth == 0 {
				switch t.Value {
				case opens:
					slotted = true
				case "GROUP", "HAVING", "ORDER", "LIMIT", "OFFSET": // a SELECT's; DML has none
					slotted = false
				}
			}
			switch t.Value {
			case "NULL", "CNULL":
				if i > 0 && isKeyword(toks[i-1], "IS") ||
					i > 1 && isKeyword(toks[i-1], "NOT") && isKeyword(toks[i-2], "IS") {
					continue
				}
			case "TRUE", "FALSE":
			default:
				continue
			}
		case lexer.Number, lexer.String:
		default:
			continue
		}
		if slotted && sub == 0 {
			dst = append(dst, i)
		}
	}
	return dst
}

func isKeyword(t lexer.Token, kw string) bool { return t.Kind == lexer.Keyword && t.Value == kw }

// ParseExpr parses a standalone scalar expression (used by tests and the
// form editor's condition fields).
func ParseExpr(src string) (Expr, error) {
	toks, err := lexer.Tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errorf("trailing input after expression: %s", p.peekDesc())
	}
	return e, nil
}

type parser struct {
	toks []lexer.Token
	pos  int
	// slotting is set while the outermost SELECT's WHERE is parsed: each
	// literal made then takes the next slot number, slots the last one.
	slotting bool
	slots    int
	// start is the index of the first token of the statement parsed.
	start int
}

// literal makes a literal of the token just read, numbered as the next
// slot while slotting.
func (p *parser) literal(v sqltypes.Value) *Literal {
	l := &Literal{Val: v}
	if p.slotting {
		p.slots++
		l.Slot = p.slots
		l.tok = int32(p.pos - 1 - p.start)
	}
	return l
}

func (p *parser) atEOF() bool { return p.pos >= len(p.toks) }

func (p *parser) peek() lexer.Token {
	if p.atEOF() {
		return lexer.Token{Kind: lexer.EOF}
	}
	return p.toks[p.pos]
}

func (p *parser) next() lexer.Token {
	t := p.peek()
	if !p.atEOF() {
		p.pos++
	}
	return t
}

func (p *parser) peekDesc() string {
	t := p.peek()
	if t.Kind == lexer.EOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.Value)
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("parser: "+format+" (offset %d)", append(args, p.peek().Pos)...)
}

func (p *parser) acceptKeyword(kw string) bool {
	t := p.peek()
	if t.Kind == lexer.Keyword && t.Value == kw {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errorf("expected %s, got %s", kw, p.peekDesc())
	}
	return nil
}

func (p *parser) acceptSymbol(sym string) bool {
	t := p.peek()
	if t.Kind == lexer.Symbol && t.Value == sym {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectSymbol(sym string) error {
	if !p.acceptSymbol(sym) {
		return p.errorf("expected %q, got %s", sym, p.peekDesc())
	}
	return nil
}

// ident accepts an identifier. Non-reserved usage of soft keywords (e.g. a
// column named "key") is not supported; quoted identifiers are not needed by
// the paper's examples.
func (p *parser) ident() (string, error) {
	t := p.peek()
	if t.Kind != lexer.Ident {
		return "", p.errorf("expected identifier, got %s", p.peekDesc())
	}
	p.pos++
	return t.Value, nil
}

func (p *parser) identList() ([]string, error) {
	var list []string
	for {
		id, err := p.ident()
		if err != nil {
			return nil, err
		}
		list = append(list, id)
		if !p.acceptSymbol(",") {
			return list, nil
		}
	}
}

func (p *parser) statement() (Statement, error) {
	p.slots = 0
	t := p.peek()
	if t.Kind != lexer.Keyword {
		return nil, p.errorf("expected statement keyword, got %s", p.peekDesc())
	}
	switch t.Value {
	case "CREATE":
		return p.createStmt()
	case "DROP":
		return p.dropStmt()
	case "INSERT":
		return p.insertStmt()
	case "SELECT":
		return p.selectStmt(true)
	case "UPDATE":
		return p.updateStmt()
	case "DELETE":
		return p.deleteStmt()
	case "EXPLAIN":
		p.pos++
		analyze := p.acceptKeyword("ANALYZE")
		inner, err := p.statement()
		if err != nil {
			return nil, err
		}
		return &Explain{Stmt: inner, Analyze: analyze}, nil
	case "SHOW":
		p.pos++
		if err := p.expectKeyword("TABLES"); err != nil {
			return nil, err
		}
		return &ShowTables{}, nil
	default:
		return nil, p.errorf("unsupported statement %q", t.Value)
	}
}

func (p *parser) createStmt() (Statement, error) {
	p.pos++ // CREATE
	switch {
	case p.acceptKeyword("CROWD"):
		if err := p.expectKeyword("TABLE"); err != nil {
			return nil, err
		}
		return p.createTable(true)
	case p.acceptKeyword("TABLE"):
		return p.createTable(false)
	case p.acceptKeyword("UNIQUE"):
		if err := p.expectKeyword("INDEX"); err != nil {
			return nil, err
		}
		return p.createIndex(true)
	case p.acceptKeyword("INDEX"):
		return p.createIndex(false)
	default:
		return nil, p.errorf("expected TABLE, CROWD TABLE or INDEX after CREATE")
	}
}

func (p *parser) createTable(crowd bool) (Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	ct := &CreateTable{Name: name, Crowd: crowd}
	for {
		switch {
		case p.acceptKeyword("PRIMARY"):
			if err := p.expectKeyword("KEY"); err != nil {
				return nil, err
			}
			if err := p.expectSymbol("("); err != nil {
				return nil, err
			}
			cols, err := p.identList()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			ct.PrimaryKey = cols
		case p.acceptKeyword("FOREIGN"):
			fk, err := p.foreignKey()
			if err != nil {
				return nil, err
			}
			ct.ForeignKeys = append(ct.ForeignKeys, *fk)
		default:
			col, err := p.columnDef()
			if err != nil {
				return nil, err
			}
			ct.Columns = append(ct.Columns, *col)
		}
		if p.acceptSymbol(",") {
			continue
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		break
	}
	if p.acceptKeyword("ANNOTATION") {
		ann, err := p.stringLit()
		if err != nil {
			return nil, err
		}
		ct.Annotation = ann
	}
	return ct, nil
}

func (p *parser) columnDef() (*ColumnDef, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	col := &ColumnDef{Name: name}
	// Paper syntax puts CROWD before the type: `abstract CROWD STRING`.
	if p.acceptKeyword("CROWD") {
		col.Crowd = true
	}
	t := p.next()
	if t.Kind != lexer.Ident && t.Kind != lexer.Keyword {
		return nil, p.errorf("expected column type for %s", name)
	}
	typ, err := sqltypes.ParseType(t.Value)
	if err != nil {
		return nil, p.errorf("column %s: %v", name, err)
	}
	col.Type = typ
	for {
		switch {
		case p.acceptKeyword("PRIMARY"):
			if err := p.expectKeyword("KEY"); err != nil {
				return nil, err
			}
			col.PrimaryKey = true
		case p.acceptKeyword("ANNOTATION"):
			ann, err := p.stringLit()
			if err != nil {
				return nil, err
			}
			col.Annotation = ann
		default:
			return col, nil
		}
	}
}

func (p *parser) foreignKey() (*ForeignKey, error) {
	// FOREIGN already consumed.
	if err := p.expectKeyword("KEY"); err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	cols, err := p.identList()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	// Paper spells it REF; standard SQL says REFERENCES.
	if !p.acceptKeyword("REF") && !p.acceptKeyword("REFERENCES") {
		return nil, p.errorf("expected REF or REFERENCES")
	}
	refTable, err := p.ident()
	if err != nil {
		return nil, err
	}
	fk := &ForeignKey{Columns: cols, RefTable: refTable}
	if p.acceptSymbol("(") {
		refCols, err := p.identList()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		fk.RefColumns = refCols
	}
	return fk, nil
}

func (p *parser) createIndex(unique bool) (Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("ON"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	cols, err := p.identList()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return &CreateIndex{Name: name, Table: table, Columns: cols, Unique: unique}, nil
}

func (p *parser) dropStmt() (Statement, error) {
	p.pos++ // DROP
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	ifExists := false
	if p.acceptKeyword("IS") { // not standard; ignore
		return nil, p.errorf("unexpected IS")
	}
	if t := p.peek(); t.Kind == lexer.Ident && strings.EqualFold(t.Value, "if") {
		p.pos++
		if t2 := p.peek(); t2.Kind == lexer.Ident && strings.EqualFold(t2.Value, "exists") {
			p.pos++
			ifExists = true
		} else {
			return nil, p.errorf("expected EXISTS after IF")
		}
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	return &DropTable{Name: name, IfExists: ifExists}, nil
}

func (p *parser) insertStmt() (Statement, error) {
	p.pos++ // INSERT
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	ins := &Insert{Table: table}
	if p.acceptSymbol("(") {
		cols, err := p.identList()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		ins.Columns = cols
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	p.slotting = true
	defer func() { p.slotting = false }()
	for {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if !p.acceptSymbol(",") {
			break
		}
	}
	return ins, nil
}

func (p *parser) updateStmt() (Statement, error) {
	p.pos++ // UPDATE
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	upd := &Update{Table: table}
	p.slotting = true
	defer func() { p.slotting = false }()
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("="); err != nil {
			return nil, err
		}
		val, err := p.expr()
		if err != nil {
			return nil, err
		}
		upd.Set = append(upd.Set, Assignment{Column: col, Value: val})
		if !p.acceptSymbol(",") {
			break
		}
	}
	if p.acceptKeyword("WHERE") {
		w, err := p.expr()
		if err != nil {
			return nil, err
		}
		upd.Where = w
	}
	return upd, nil
}

func (p *parser) deleteStmt() (Statement, error) {
	p.pos++ // DELETE
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	del := &Delete{Table: table}
	if p.acceptKeyword("WHERE") {
		p.slotting = true
		w, err := p.expr()
		p.slotting = false
		if err != nil {
			return nil, err
		}
		del.Where = w
	}
	return del, nil
}

// selectStmt parses a SELECT; outer is false for a subquery, whose WHERE
// literals are no slots.
func (p *parser) selectStmt(outer bool) (Statement, error) {
	p.pos++ // SELECT
	sel := &Select{Limit: -1}
	if p.acceptKeyword("DISTINCT") {
		sel.Distinct = true
	} else {
		p.acceptKeyword("ALL")
	}
	for {
		item, err := p.selectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, *item)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if p.acceptKeyword("FROM") {
		first, err := p.tableRef(JoinNone)
		if err != nil {
			return nil, err
		}
		sel.From = append(sel.From, *first)
		for {
			var jt JoinType
			switch {
			case p.acceptSymbol(","):
				jt = JoinCross
			case p.acceptKeyword("CROSS"):
				if err := p.expectKeyword("JOIN"); err != nil {
					return nil, err
				}
				jt = JoinCross
			case p.acceptKeyword("LEFT"):
				p.acceptKeyword("OUTER")
				if err := p.expectKeyword("JOIN"); err != nil {
					return nil, err
				}
				jt = JoinLeft
			case p.acceptKeyword("INNER"):
				if err := p.expectKeyword("JOIN"); err != nil {
					return nil, err
				}
				jt = JoinInner
			case p.acceptKeyword("JOIN"):
				jt = JoinInner
			default:
				jt = JoinNone
			}
			if jt == JoinNone {
				break
			}
			tr, err := p.tableRef(jt)
			if err != nil {
				return nil, err
			}
			if jt != JoinCross {
				if err := p.expectKeyword("ON"); err != nil {
					return nil, err
				}
				on, err := p.expr()
				if err != nil {
					return nil, err
				}
				tr.On = on
			}
			sel.From = append(sel.From, *tr)
		}
	}
	if p.acceptKeyword("WHERE") {
		p.slotting = outer
		w, err := p.expr()
		p.slotting = false
		if err != nil {
			return nil, err
		}
		sel.Where = w
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			g, err := p.expr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, g)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("HAVING") {
		h, err := p.expr()
		if err != nil {
			return nil, err
		}
		sel.Having = h
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		n, err := p.intLit()
		if err != nil {
			return nil, err
		}
		sel.Limit = n
	}
	if p.acceptKeyword("OFFSET") {
		n, err := p.intLit()
		if err != nil {
			return nil, err
		}
		sel.Offset = n
	}
	return sel, nil
}

func (p *parser) selectItem() (*SelectItem, error) {
	if p.acceptSymbol("*") {
		return &SelectItem{Star: true}, nil
	}
	// t.* form: ident "." "*"
	if t := p.peek(); t.Kind == lexer.Ident && p.pos+2 < len(p.toks) &&
		p.toks[p.pos+1].Kind == lexer.Symbol && p.toks[p.pos+1].Value == "." &&
		p.toks[p.pos+2].Kind == lexer.Symbol && p.toks[p.pos+2].Value == "*" {
		p.pos += 3
		return &SelectItem{Star: true, StarTable: t.Value}, nil
	}
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	item := &SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		alias, err := p.ident()
		if err != nil {
			return nil, err
		}
		item.Alias = alias
	} else if t := p.peek(); t.Kind == lexer.Ident {
		p.pos++
		item.Alias = t.Value
	}
	return item, nil
}

func (p *parser) tableRef(jt JoinType) (*TableRef, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	tr := &TableRef{Table: name, Join: jt}
	if p.acceptKeyword("AS") {
		alias, err := p.ident()
		if err != nil {
			return nil, err
		}
		tr.Alias = alias
	} else if t := p.peek(); t.Kind == lexer.Ident {
		p.pos++
		tr.Alias = t.Value
	}
	return tr, nil
}

func (p *parser) stringLit() (string, error) {
	t := p.peek()
	if t.Kind != lexer.String {
		return "", p.errorf("expected string literal, got %s", p.peekDesc())
	}
	p.pos++
	return t.Value, nil
}

func (p *parser) intLit() (int64, error) {
	t := p.peek()
	if t.Kind != lexer.Number {
		return 0, p.errorf("expected number, got %s", p.peekDesc())
	}
	n, err := strconv.ParseInt(t.Value, 10, 64)
	if err != nil {
		return 0, p.errorf("expected integer, got %q", t.Value)
	}
	p.pos++
	return n, nil
}

// ---------------------------------------------------------------------------
// Expression parsing (precedence climbing)

func (p *parser) expr() (Expr, error) { return p.orExpr() }

func (p *parser) orExpr() (Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) andExpr() (Expr, error) {
	l, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		r, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) notExpr() (Expr, error) {
	if p.acceptKeyword("NOT") {
		e, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", E: e}, nil
	}
	return p.comparison()
}

func (p *parser) comparison() (Expr, error) {
	l, err := p.additive()
	if err != nil {
		return nil, err
	}
	// IS [NOT] NULL / CNULL
	if p.acceptKeyword("IS") {
		neg := p.acceptKeyword("NOT")
		switch {
		case p.acceptKeyword("NULL"):
			return &IsNullExpr{E: l, Neg: neg}, nil
		case p.acceptKeyword("CNULL"):
			return &IsNullExpr{E: l, CNull: true, Neg: neg}, nil
		default:
			return nil, p.errorf("expected NULL or CNULL after IS")
		}
	}
	neg := false
	if t := p.peek(); t.Kind == lexer.Keyword && t.Value == "NOT" &&
		p.pos+1 < len(p.toks) && p.toks[p.pos+1].Kind == lexer.Keyword &&
		(p.toks[p.pos+1].Value == "IN" || p.toks[p.pos+1].Value == "LIKE" || p.toks[p.pos+1].Value == "BETWEEN") {
		p.pos++
		neg = true
	}
	switch {
	case p.acceptKeyword("IN"):
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		// Subquery form: IN (SELECT ...).
		if tok := p.peek(); tok.Kind == lexer.Keyword && tok.Value == "SELECT" {
			slotting := p.slotting
			p.slotting = false
			sub, err := p.selectStmt(false)
			p.slotting = slotting
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return &InExpr{E: l, Sub: sub.(*Select), Neg: neg}, nil
		}
		var list []Expr
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return &InExpr{E: l, List: list, Neg: neg}, nil
	case p.acceptKeyword("BETWEEN"):
		lo, err := p.additive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.additive()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{E: l, Lo: lo, Hi: hi, Neg: neg}, nil
	case p.acceptKeyword("LIKE"):
		r, err := p.additive()
		if err != nil {
			return nil, err
		}
		var e Expr = &BinaryExpr{Op: "LIKE", L: l, R: r}
		if neg {
			e = &UnaryExpr{Op: "NOT", E: e}
		}
		return e, nil
	}
	for _, op := range []string{"<=", ">=", "<>", "!=", "~=", "=", "<", ">"} {
		if p.acceptSymbol(op) {
			r, err := p.additive()
			if err != nil {
				return nil, err
			}
			if op == "!=" {
				op = "<>"
			}
			return &BinaryExpr{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) additive() (Expr, error) {
	l, err := p.multiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.acceptSymbol("+"):
			op = "+"
		case p.acceptSymbol("-"):
			op = "-"
		case p.acceptSymbol("||"):
			op = "||"
		default:
			return l, nil
		}
		r, err := p.multiplicative()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: op, L: l, R: r}
	}
}

func (p *parser) multiplicative() (Expr, error) {
	l, err := p.unary()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.acceptSymbol("*"):
			op = "*"
		case p.acceptSymbol("/"):
			op = "/"
		case p.acceptSymbol("%"):
			op = "%"
		default:
			return l, nil
		}
		r, err := p.unary()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: op, L: l, R: r}
	}
}

func (p *parser) unary() (Expr, error) {
	if p.acceptSymbol("-") {
		e, err := p.unary()
		if err != nil {
			return nil, err
		}
		if lit, ok := e.(*Literal); ok {
			// The literal is the one primary just made: negate it in place,
			// keeping its slot, which notes it.
			switch lit.Val.Kind() {
			case sqltypes.KindInt:
				lit.Val, lit.neg = sqltypes.NewInt(-lit.Val.Int()), lit.Slot > 0 && !lit.neg
				return lit, nil
			case sqltypes.KindFloat:
				lit.Val, lit.neg = sqltypes.NewFloat(-lit.Val.Float()), lit.Slot > 0 && !lit.neg
				return lit, nil
			}
		}
		return &UnaryExpr{Op: "-", E: e}, nil
	}
	p.acceptSymbol("+")
	return p.primary()
}

// scalarFuncs are non-aggregate builtins callable by name.
var scalarFuncs = map[string]bool{
	"LOWER": true, "UPPER": true, "LENGTH": true, "TRIM": true,
	"ABS": true, "ROUND": true, "COALESCE": true, "SUBSTR": true,
}

// LiteralValue is the value of a literal token: a number, a quoted
// string, or one of the keywords NULL, CNULL, TRUE and FALSE. A number
// with a fraction or an exponent is a FLOAT, any other an INTEGER; one
// out of range is an error, as is any other token.
func LiteralValue(t lexer.Token) (sqltypes.Value, error) {
	switch t.Kind {
	case lexer.Number:
		if strings.ContainsAny(t.Value, ".eE") {
			f, err := strconv.ParseFloat(t.Value, 64)
			if err != nil {
				return sqltypes.Value{}, fmt.Errorf("bad number %q", t.Value)
			}
			return sqltypes.NewFloat(f), nil
		}
		n, err := strconv.ParseInt(t.Value, 10, 64)
		if err != nil {
			return sqltypes.Value{}, fmt.Errorf("bad integer %q", t.Value)
		}
		return sqltypes.NewInt(n), nil
	case lexer.String:
		return sqltypes.NewString(t.Value), nil
	case lexer.Keyword:
		switch t.Value {
		case "NULL":
			return sqltypes.Null(), nil
		case "CNULL":
			return sqltypes.CNull(), nil
		case "TRUE":
			return sqltypes.NewBool(true), nil
		case "FALSE":
			return sqltypes.NewBool(false), nil
		}
	}
	return sqltypes.Value{}, fmt.Errorf("%q is no literal", t.Value)
}

func (p *parser) primary() (Expr, error) {
	t := p.peek()
	switch t.Kind {
	case lexer.Number, lexer.String:
		p.pos++
		v, err := LiteralValue(t)
		if err != nil {
			return nil, p.errorf("%v", err)
		}
		return p.literal(v), nil
	case lexer.Keyword:
		switch t.Value {
		case "NULL", "CNULL", "TRUE", "FALSE":
			p.pos++
			v, _ := LiteralValue(t)
			return p.literal(v), nil
		case "COUNT", "SUM", "AVG", "MIN", "MAX", "CROWDEQUAL", "CROWDORDER":
			p.pos++
			return p.funcCall(t.Value)
		}
		return nil, p.errorf("unexpected keyword %q in expression", t.Value)
	case lexer.Ident:
		// function call?
		if p.pos+1 < len(p.toks) && p.toks[p.pos+1].Kind == lexer.Symbol && p.toks[p.pos+1].Value == "(" {
			name := strings.ToUpper(t.Value)
			if !scalarFuncs[name] {
				return nil, p.errorf("unknown function %q", t.Value)
			}
			p.pos++
			return p.funcCall(name)
		}
		p.pos++
		// qualified column t.c
		if p.acceptSymbol(".") {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Table: t.Value, Name: col}, nil
		}
		return &ColumnRef{Name: t.Value}, nil
	case lexer.Symbol:
		if t.Value == "(" {
			p.pos++
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errorf("unexpected token %s in expression", p.peekDesc())
}

func (p *parser) funcCall(name string) (Expr, error) {
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	fc := &FuncCall{Name: name}
	if name == "COUNT" && p.acceptSymbol("*") {
		fc.Star = true
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return fc, nil
	}
	if p.acceptSymbol(")") {
		return nil, p.errorf("%s requires arguments", name)
	}
	for {
		a, err := p.expr()
		if err != nil {
			return nil, err
		}
		fc.Args = append(fc.Args, a)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	if err := checkArity(fc); err != nil {
		return nil, err
	}
	return fc, nil
}

func checkArity(fc *FuncCall) error {
	n := len(fc.Args)
	switch fc.Name {
	case "CROWDEQUAL":
		// CROWDEQUAL(l, r [, question])
		if n != 2 && n != 3 {
			return fmt.Errorf("parser: CROWDEQUAL takes 2 or 3 arguments, got %d", n)
		}
	case "CROWDORDER":
		// CROWDORDER(expr, "question") — paper Example 3.
		if n != 1 && n != 2 {
			return fmt.Errorf("parser: CROWDORDER takes 1 or 2 arguments, got %d", n)
		}
	case "COUNT", "SUM", "AVG", "MIN", "MAX", "LOWER", "UPPER", "LENGTH", "TRIM", "ABS":
		if n != 1 {
			return fmt.Errorf("parser: %s takes 1 argument, got %d", fc.Name, n)
		}
	case "ROUND", "SUBSTR":
		if n < 1 || n > 3 {
			return fmt.Errorf("parser: %s takes 1-3 arguments, got %d", fc.Name, n)
		}
	}
	return nil
}
