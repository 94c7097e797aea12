// Package ui implements CrowdDB's user-interface generation (paper §3.1):
// at compile time the UI Creation component turns schema information into
// HTML form templates for every CROWD table and every table with CROWD
// columns; the UI Template Manager stores them and lets application
// developers edit instructions (the Form Editor); at runtime the Task
// Manager instantiates a template for a concrete tuple — known values are
// copied into the form, CNULL fields asked by the query become inputs.
//
// Instantiation is copying, not interpretation: the skeleton every form
// shares is fixed when this package is compiled, so renderForm writes its
// literal pieces and the tuple's values straight into one buffer and no
// template is parsed, walked or reflected over per HIT. The only thing a
// template engine did for these forms beyond concatenation is contextual
// escaping, and the skeleton puts values in three contexts only, which the
// standard library's HTML templates escape identically — hence the escaper
// is a seven-entry table (formEscapes). render_test.go keeps the template
// the skeleton was taken from and checks the two byte for byte.
package ui

import (
	"fmt"
	"strings"
	"sync"

	"crowddb/internal/catalog"
	"crowddb/internal/crowd"
	"crowddb/internal/sqltypes"
)

// Template is one managed UI template. Instructions are the editable part
// (Form Editor); the field layout is derived from the schema.
type Template struct {
	Table        string
	Kind         crowd.TaskKind
	Instructions string
}

// templateKey names a template: its table, case-folded, and task kind.
type templateKey struct {
	table string
	kind  crowd.TaskKind
}

// lookup is the template of table and kind; m.mu is held.
func (m *Manager) lookup(table string, kind crowd.TaskKind) (*Template, bool) {
	var buf [64]byte
	t, ok := m.templates[templateKey{string(catalog.AppendFold(buf[:0], table)), kind}]
	return t, ok
}

// Manager is the UI Template Manager: it owns every generated template and
// instantiates them into concrete task forms.
type Manager struct {
	cat *catalog.Catalog

	mu        sync.RWMutex
	templates map[templateKey]*Template
}

// NewManager creates a manager bound to a catalog.
func NewManager(cat *catalog.Catalog) *Manager {
	return &Manager{cat: cat, templates: make(map[templateKey]*Template)}
}

// GenerateAll performs the compile-time generation step: templates for
// probing CROWD columns, for contributing tuples to CROWD tables, and the
// two comparison forms. Safe to call repeatedly (e.g. after DDL); existing
// developer-edited instructions are preserved.
func (m *Manager) GenerateAll() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, t := range m.cat.Tables() {
		if t.HasCrowdColumns() {
			m.ensureLocked(t.Name, crowd.TaskProbeValues, defaultInstructions(t.Name, crowd.TaskProbeValues))
		}
		if t.Crowd {
			m.ensureLocked(t.Name, crowd.TaskNewTuple, defaultInstructions(t.Name, crowd.TaskNewTuple))
		}
	}
	m.ensureLocked("", crowd.TaskCompareEqual, defaultInstructions("", crowd.TaskCompareEqual))
	m.ensureLocked("", crowd.TaskCompareOrder, defaultInstructions("", crowd.TaskCompareOrder))
}

// defaultInstructions is the text GenerateAll stores with a form's
// template, and the one a form falls back on when the template is
// missing.
func defaultInstructions(table string, kind crowd.TaskKind) string {
	switch kind {
	case crowd.TaskProbeValues:
		return "Please fill in the missing information for this row of the " + table + " table."
	case crowd.TaskNewTuple:
		return "Please contribute a new entry for the " + table + " table."
	case crowd.TaskCompareEqual:
		return "Do the two values below refer to the same real-world entity?"
	default:
		return "Please pick the item you consider higher-ranked for the question below."
	}
}

func (m *Manager) ensureLocked(table string, kind crowd.TaskKind, instructions string) {
	if _, ok := m.lookup(table, kind); !ok {
		m.templates[templateKey{strings.ToLower(table), kind}] = &Template{Table: table, Kind: kind, Instructions: instructions}
	}
}

// Template fetches a managed template.
func (m *Manager) Template(table string, kind crowd.TaskKind) (*Template, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.lookup(table, kind)
}

// EditInstructions is the Form Editor hook: developers replace the default
// instructions with custom text.
func (m *Manager) EditInstructions(table string, kind crowd.TaskKind, text string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.lookup(table, kind)
	if !ok {
		return fmt.Errorf("ui: no template for table %q kind %v", table, kind)
	}
	t.Instructions = text
	return nil
}

// instructionsFor returns the instructions stored with a form's
// template, building the default only when it has none.
func (m *Manager) instructionsFor(table string, kind crowd.TaskKind) string {
	if t, ok := m.Template(table, kind); ok {
		return t.Instructions
	}
	return defaultInstructions(table, kind)
}

func fieldLabel(col *catalog.Column) string {
	if col.Annotation != "" {
		return col.Annotation
	}
	return strings.ReplaceAll(col.Name, "_", " ")
}

// ProbeForm instantiates the probe template for one tuple of a table:
// known column values become read-only context, the named ask columns
// become inputs. Returns the rendered fields and HTML.
func (m *Manager) ProbeForm(table string, known map[string]sqltypes.Value, ask []string) ([]crowd.Field, string, error) {
	t, ok := m.cat.Table(table)
	if !ok {
		return nil, "", fmt.Errorf("ui: unknown table %s", table)
	}
	asked := make([]bool, len(t.Columns))
	for _, a := range ask {
		i := t.ColumnIndex(a)
		if i < 0 {
			return nil, "", fmt.Errorf("ui: unknown column %s.%s", table, a)
		}
		asked[i] = true
	}
	var fields []crowd.Field
	for i := range t.Columns {
		col := &t.Columns[i]
		switch {
		case asked[i]:
			fields = append(fields, crowd.Field{Name: col.Name, Label: fieldLabel(col), Kind: crowd.FieldInput})
		default:
			v, ok := known[strings.ToLower(col.Name)]
			if !ok || v.IsUnknown() {
				continue // unknown and not asked: omit from the form
			}
			fields = append(fields, crowd.Field{Name: col.Name, Label: fieldLabel(col), Kind: crowd.FieldDisplay, Value: v.String()})
		}
	}
	instr := m.instructionsFor(t.Name, crowd.TaskProbeValues)
	return fields, renderForm("Fill in missing data: "+t.Name, crowd.TaskProbeValues, instr, t.Annotation, fields), nil
}

// NewTupleForm instantiates the new-tuple template for a CROWD table:
// every column becomes an input unless prefill pins it (e.g. the foreign
// key of the probing query, as in the paper's NotableAttendee example).
func (m *Manager) NewTupleForm(table string, prefill map[string]sqltypes.Value) ([]crowd.Field, string, error) {
	t, ok := m.cat.Table(table)
	if !ok {
		return nil, "", fmt.Errorf("ui: unknown table %s", table)
	}
	if !t.Crowd {
		return nil, "", fmt.Errorf("ui: table %s is not a CROWD table", table)
	}
	var fields []crowd.Field
	for i := range t.Columns {
		col := &t.Columns[i]
		if v, ok := prefill[strings.ToLower(col.Name)]; ok && !v.IsUnknown() {
			fields = append(fields, crowd.Field{Name: col.Name, Label: fieldLabel(col), Kind: crowd.FieldDisplay, Value: v.String()})
			continue
		}
		fields = append(fields, crowd.Field{Name: col.Name, Label: fieldLabel(col), Kind: crowd.FieldInput})
	}
	instr := m.instructionsFor(t.Name, crowd.TaskNewTuple)
	return fields, renderForm("Contribute a new entry: "+t.Name, crowd.TaskNewTuple, instr, t.Annotation, fields), nil
}

// AnswerField is the canonical input-field name for comparison forms.
const AnswerField = "answer"

// CompareEqualForm builds the CROWDEQUAL task: two values and a yes/no
// choice (paper §2.2).
func (m *Manager) CompareEqualForm(question, left, right string) ([]crowd.Field, string, error) {
	if question == "" {
		question = "Do these two values refer to the same entity?"
	}
	fields := []crowd.Field{
		{Name: "question", Label: "Question", Kind: crowd.FieldDisplay, Value: question},
		{Name: "left", Label: "Value A", Kind: crowd.FieldDisplay, Value: left},
		{Name: "right", Label: "Value B", Kind: crowd.FieldDisplay, Value: right},
		{Name: AnswerField, Label: "Same entity?", Kind: crowd.FieldChoice, Options: []string{"yes", "no"}},
	}
	instr := m.instructionsFor("", crowd.TaskCompareEqual)
	return fields, renderForm("Compare two values", crowd.TaskCompareEqual, instr, "", fields), nil
}

// CompareOrderForm builds the CROWDORDER binary-comparison task: the
// question from the query (e.g. "Which talk did you like better") plus two
// items to choose between (paper Example 3).
func (m *Manager) CompareOrderForm(question, left, right string) ([]crowd.Field, string, error) {
	if question == "" {
		question = "Which of the two items ranks higher?"
	}
	fields := []crowd.Field{
		{Name: "question", Label: "Question", Kind: crowd.FieldDisplay, Value: question},
		{Name: AnswerField, Label: question, Kind: crowd.FieldChoice, Options: []string{left, right}},
	}
	instr := m.instructionsFor("", crowd.TaskCompareOrder)
	return fields, renderForm("Rank two items", crowd.TaskCompareOrder, instr, "", fields), nil
}

// formEscapes is how the standard library's HTML templates escape a plain
// string in the three contexts the skeleton has — element text, the RCDATA
// <title>, a double-quoted attribute value. They use one seven-entry table
// for all three and pass everything else through, invalid UTF-8 included;
// every entry is a single ASCII byte, which no multi-byte sequence
// contains, so a byte-indexed table is that table. "" passes the byte
// through.
var formEscapes = [256]string{
	0:    "\uFFFD",
	'"':  "&#34;",
	'&':  "&amp;",
	'\'': "&#39;",
	'+':  "&#43;",
	'<':  "&lt;",
	'>':  "&gt;",
}

// formWriter writes a form into sb, or, with sb nil, only counts its bytes
// in n: renderForm runs the skeleton once to size the buffer exactly and
// once to fill it.
type formWriter struct {
	n  int
	sb *strings.Builder
}

// lit writes a literal piece of the skeleton.
func (w *formWriter) lit(s string) {
	if w.sb == nil {
		w.n += len(s)
		return
	}
	w.sb.WriteString(s)
}

// esc writes a value, escaped by formEscapes.
func (w *formWriter) esc(s string) {
	last := 0
	for i := 0; i < len(s); i++ {
		rep := formEscapes[s[i]]
		if rep == "" {
			continue
		}
		w.lit(s[last:i])
		w.lit(rep)
		last = i + 1
	}
	w.lit(s[last:])
}

// renderForm instantiates the task-form skeleton (the paper's Fig. 2:
// instructions at the top, known values shown read-only, missing values as
// inputs, choices as radio buttons) for one HIT. The form is one
// allocation of exactly its size, with no slack for the market to keep
// while it holds the HIT.
func renderForm(title string, kind crowd.TaskKind, instructions, annotation string, fields []crowd.Field) string {
	var size formWriter
	writeForm(&size, title, kind, instructions, annotation, fields)
	var sb strings.Builder
	sb.Grow(size.n)
	writeForm(&formWriter{sb: &sb}, title, kind, instructions, annotation, fields)
	return sb.String()
}

// writeForm runs the skeleton through w.
func writeForm(w *formWriter, title string, kind crowd.TaskKind, instructions, annotation string, fields []crowd.Field) {
	w.lit("<!DOCTYPE html>\n<html>\n<head><title>")
	w.esc(title)
	w.lit("</title></head>\n<body>\n<form class=\"crowddb-task\" data-kind=\"")
	w.esc(kind.String())
	w.lit("\">\n<h2>")
	w.esc(title)
	w.lit("</h2>\n<p class=\"instructions\">")
	w.esc(instructions)
	w.lit("</p>\n")
	if annotation != "" {
		w.lit(`<p class="annotation">`)
		w.esc(annotation)
		w.lit("</p>")
	}
	w.lit("\n<table>\n")
	for _, f := range fields {
		w.lit("<tr>\n  <td class=\"label\">")
		w.esc(f.Label)
		w.lit("</td>\n  <td>")
		switch f.Kind {
		case crowd.FieldDisplay:
			w.lit(`<span class="known">`)
			w.esc(f.Value)
			w.lit("</span>")
		case crowd.FieldInput:
			w.lit(`<input type="text" name="`)
			w.esc(f.Name)
			w.lit(`" value="">`)
		case crowd.FieldChoice:
			for _, opt := range f.Options {
				w.lit(`<label><input type="radio" name="`)
				w.esc(f.Name)
				w.lit(`" value="`)
				w.esc(opt)
				w.lit(`">`)
				w.esc(opt)
				w.lit("</label> ")
			}
		}
		w.lit("</td>\n</tr>\n")
	}
	w.lit("</table>\n<button type=\"submit\">Submit</button>\n</form>\n</body>\n</html>\n")
}
