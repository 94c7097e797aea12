package ui

import (
	"strings"
	"testing"

	"crowddb/internal/catalog"
	"crowddb/internal/crowd"
	"crowddb/internal/sqltypes"
)

func testCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	err := cat.CreateTable(&catalog.Table{
		Name: "Talk",
		Columns: []catalog.Column{
			{Name: "title", Type: sqltypes.TypeString, PrimaryKey: true},
			{Name: "abstract", Type: sqltypes.TypeString, Crowd: true},
			{Name: "nb_attendees", Type: sqltypes.TypeInt, Crowd: true, Annotation: "How many people were in the audience?"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	err = cat.CreateTable(&catalog.Table{
		Name:  "NotableAttendee",
		Crowd: true,
		Columns: []catalog.Column{
			{Name: "name", Type: sqltypes.TypeString, PrimaryKey: true},
			{Name: "title", Type: sqltypes.TypeString},
		},
		ForeignKeys: []catalog.ForeignKey{{Columns: []string{"title"}, RefTable: "Talk", RefColumns: []string{"title"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

func TestGenerateAll(t *testing.T) {
	m := NewManager(testCatalog(t))
	m.GenerateAll()
	if _, ok := m.Template("Talk", crowd.TaskProbeValues); !ok {
		t.Error("probe template for Talk (has CROWD columns)")
	}
	if _, ok := m.Template("Talk", crowd.TaskNewTuple); ok {
		t.Error("Talk is not a CROWD table; no new-tuple template")
	}
	if _, ok := m.Template("NotableAttendee", crowd.TaskNewTuple); !ok {
		t.Error("new-tuple template for CROWD table")
	}
	if _, ok := m.Template("", crowd.TaskCompareEqual); !ok {
		t.Error("compare-equal template")
	}
	if got := len(m.templates); got != 4 {
		t.Errorf("template count: %d", got)
	}
}

// This is the paper's Fig. 2 scenario: SELECT abstract FROM Talk WHERE
// title = "CrowdDB" — the form shows the known title and asks for the
// abstract.
func TestProbeFormFig2(t *testing.T) {
	m := NewManager(testCatalog(t))
	m.GenerateAll()
	fields, html, err := m.ProbeForm("Talk",
		map[string]sqltypes.Value{"title": sqltypes.NewString("CrowdDB"), "abstract": sqltypes.CNull()},
		[]string{"abstract"})
	if err != nil {
		t.Fatal(err)
	}
	if len(fields) != 2 {
		t.Fatalf("fields: %+v", fields)
	}
	if fields[0].Kind != crowd.FieldDisplay || fields[0].Value != "CrowdDB" {
		t.Errorf("known title must be display: %+v", fields[0])
	}
	if fields[1].Kind != crowd.FieldInput || fields[1].Name != "abstract" {
		t.Errorf("abstract must be input: %+v", fields[1])
	}
	for _, want := range []string{
		`<span class="known">CrowdDB</span>`,
		`<input type="text" name="abstract"`,
		"Fill in missing data: Talk",
		"Please fill in the missing information",
	} {
		if !strings.Contains(html, want) {
			t.Errorf("HTML missing %q:\n%s", want, html)
		}
	}
}

func TestProbeFormUsesColumnAnnotation(t *testing.T) {
	m := NewManager(testCatalog(t))
	m.GenerateAll()
	_, html, err := m.ProbeForm("Talk",
		map[string]sqltypes.Value{"title": sqltypes.NewString("X")},
		[]string{"nb_attendees"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(html, "How many people were in the audience?") {
		t.Error("column annotation must label the input")
	}
}

func TestProbeFormErrors(t *testing.T) {
	m := NewManager(testCatalog(t))
	if _, _, err := m.ProbeForm("Nope", nil, nil); err == nil {
		t.Error("unknown table")
	}
	if _, _, err := m.ProbeForm("Talk", nil, []string{"zzz"}); err == nil {
		t.Error("unknown column")
	}
}

func TestNewTupleFormWithPrefill(t *testing.T) {
	m := NewManager(testCatalog(t))
	m.GenerateAll()
	fields, html, err := m.NewTupleForm("NotableAttendee",
		map[string]sqltypes.Value{"title": sqltypes.NewString("CrowdDB")})
	if err != nil {
		t.Fatal(err)
	}
	// name = input, title = prefilled display.
	if fields[0].Name != "name" || fields[0].Kind != crowd.FieldInput {
		t.Errorf("%+v", fields[0])
	}
	if fields[1].Name != "title" || fields[1].Kind != crowd.FieldDisplay || fields[1].Value != "CrowdDB" {
		t.Errorf("%+v", fields[1])
	}
	if !strings.Contains(html, "Contribute a new entry: NotableAttendee") {
		t.Error("title missing")
	}
	if _, _, err := m.NewTupleForm("Talk", nil); err == nil {
		t.Error("new-tuple form requires a CROWD table")
	}
}

func TestCompareForms(t *testing.T) {
	m := NewManager(testCatalog(t))
	m.GenerateAll()
	fields, html, err := m.CompareEqualForm("", "CrowdDB", "CrowDB")
	if err != nil {
		t.Fatal(err)
	}
	last := fields[len(fields)-1]
	if last.Kind != crowd.FieldChoice || len(last.Options) != 2 {
		t.Errorf("%+v", last)
	}
	if !strings.Contains(html, `value="yes"`) || !strings.Contains(html, `value="no"`) {
		t.Error("yes/no radios missing")
	}

	fields, html, err = m.CompareOrderForm("Which talk did you like better", "Talk A", "Talk B")
	if err != nil {
		t.Fatal(err)
	}
	last = fields[len(fields)-1]
	if last.Options[0] != "Talk A" || last.Options[1] != "Talk B" {
		t.Errorf("%+v", last)
	}
	if !strings.Contains(html, "Which talk did you like better") {
		t.Error("question missing from form")
	}
}

func TestFormEditor(t *testing.T) {
	m := NewManager(testCatalog(t))
	m.GenerateAll()
	if err := m.EditInstructions("Talk", crowd.TaskProbeValues, "Custom instructions here."); err != nil {
		t.Fatal(err)
	}
	_, html, err := m.ProbeForm("Talk", nil, []string{"abstract"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(html, "Custom instructions here.") {
		t.Error("edited instructions must appear in rendered forms")
	}
	// Re-generation must not clobber the edit.
	m.GenerateAll()
	_, html, _ = m.ProbeForm("Talk", nil, []string{"abstract"})
	if !strings.Contains(html, "Custom instructions here.") {
		t.Error("GenerateAll clobbered a developer edit")
	}
	if err := m.EditInstructions("Nope", crowd.TaskProbeValues, "x"); err == nil {
		t.Error("editing a missing template must fail")
	}
}

func TestHTMLEscaping(t *testing.T) {
	m := NewManager(testCatalog(t))
	m.GenerateAll()
	_, html, err := m.ProbeForm("Talk",
		map[string]sqltypes.Value{"title": sqltypes.NewString(`<script>alert("x")</script>`)},
		[]string{"abstract"})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(html, "<script>") {
		t.Error("known values must be HTML-escaped")
	}
}

// A template is found under any spelling of its table's name, and a
// lookup of a mixed-case name allocates nothing.
func TestTemplateLookupFoldsWithoutAllocating(t *testing.T) {
	m := NewManager(testCatalog(t))
	m.GenerateAll()
	for _, name := range []string{"Talk", "talk", "TALK"} {
		if _, ok := m.Template(name, crowd.TaskProbeValues); !ok {
			t.Errorf("Template(%q) not found", name)
		}
	}
	if n := testing.AllocsPerRun(100, func() { m.Template("Talk", crowd.TaskProbeValues) }); n != 0 {
		t.Errorf("Template(%q): %.0f allocations, want 0", "Talk", n)
	}
}
