package ui

import (
	"html/template"
	"math/rand"
	"strings"
	"testing"

	"crowddb/internal/catalog"
	"crowddb/internal/crowd"
)

// oracleTemplate is the html/template every task form was executed from
// before renderForm wrote forms directly. It stays here, verbatim, as the
// definition of what renderForm must produce byte for byte.
var oracleTemplate = template.Must(template.New("form").Parse(`<!DOCTYPE html>
<html>
<head><title>{{.Title}}</title></head>
<body>
<form class="crowddb-task" data-kind="{{.Kind}}">
<h2>{{.Title}}</h2>
<p class="instructions">{{.Instructions}}</p>
{{if .Annotation}}<p class="annotation">{{.Annotation}}</p>{{end}}
<table>
{{range .Fields}}<tr>
  <td class="label">{{.Label}}</td>
  <td>{{if eq .Control "display"}}<span class="known">{{.Value}}</span>{{end -}}
      {{if eq .Control "input"}}<input type="text" name="{{.Name}}" value="">{{end -}}
      {{if eq .Control "choice"}}{{$f := .}}{{range .Options}}<label><input type="radio" name="{{$f.Name}}" value="{{.}}">{{.}}</label> {{end}}{{end}}</td>
</tr>
{{end}}</table>
<button type="submit">Submit</button>
</form>
</body>
</html>
`))

type templateField struct {
	Name    string
	Label   string
	Control string // display | input | choice
	Value   string
	Options []string
}

type formData struct {
	Title        string
	Kind         string
	Instructions string
	Annotation   string
	Fields       []templateField
}

func oracleForm(tb testing.TB, title string, kind crowd.TaskKind, instructions, annotation string, fields []crowd.Field) string {
	data := formData{Title: title, Kind: kind.String(), Instructions: instructions, Annotation: annotation}
	for _, f := range fields {
		tf := templateField{Name: f.Name, Label: f.Label, Value: f.Value, Options: f.Options}
		switch f.Kind {
		case crowd.FieldDisplay:
			tf.Control = "display"
		case crowd.FieldInput:
			tf.Control = "input"
		case crowd.FieldChoice:
			tf.Control = "choice"
		}
		data.Fields = append(data.Fields, tf)
	}
	var sb strings.Builder
	if err := oracleTemplate.Execute(&sb, data); err != nil {
		tb.Fatalf("oracle template: %v", err)
	}
	return sb.String()
}

// formAlphabet has every byte the escaper rewrites, what it must leave
// alone (invalid UTF-8, multi-byte runes, runes html/template escapes only
// in unquoted attributes), and text that looks like markup or an action.
var formAlphabet = []string{
	"<", ">", "&", "'", `"`, "+", "\x00", "\xff", "\xc3", "{{", "}}", "\n", "\r", "\t", " ",
	"é", "日本", "\u00a0", "\ufdd0", "\ufffe", "\ufffd", "=", "`", "/", "-->", "<!--", "</title>", "</form>",
	"<script>", "&amp;", "a", "Z", "0", "talk", "_",
}

func randText(rng *rand.Rand, maxParts int) string {
	var sb strings.Builder
	for i, n := 0, rng.Intn(maxParts+1); i < n; i++ {
		sb.WriteString(formAlphabet[rng.Intn(len(formAlphabet))])
	}
	return sb.String()
}

func randFields(rng *rand.Rand) []crowd.Field {
	fields := make([]crowd.Field, rng.Intn(5))
	for i := range fields {
		f := crowd.Field{Name: randText(rng, 3), Label: randText(rng, 6), Value: randText(rng, 8),
			Kind: crowd.FieldKind(rng.Intn(3))}
		for j, n := 0, rng.Intn(3); j < n; j++ {
			f.Options = append(f.Options, randText(rng, 4))
		}
		fields[i] = f
	}
	return fields
}

// renderForm writes exactly what executing the template wrote.
func TestRenderFormMatchesTemplate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	kinds := []crowd.TaskKind{crowd.TaskProbeValues, crowd.TaskNewTuple, crowd.TaskCompareEqual, crowd.TaskCompareOrder}
	for i := 0; i < 20000; i++ {
		title, instr, annotation := randText(rng, 6), randText(rng, 10), randText(rng, 4)
		kind, fields := kinds[rng.Intn(len(kinds))], randFields(rng)
		got := renderForm(title, kind, instr, annotation, fields)
		want := oracleForm(t, title, kind, instr, annotation, fields)
		if got != want {
			t.Fatalf("form %d (title %q instr %q annotation %q fields %+v):\n got  %q\n want %q",
				i, title, instr, annotation, fields, got, want)
		}
	}
}

// FuzzRenderForm is the same property over fuzzer-chosen strings: one form
// with a field of each kind, every string slot fed from the input. The
// seed corpus is testdata/fuzz/FuzzRenderForm.
func FuzzRenderForm(f *testing.F) {
	f.Fuzz(func(t *testing.T, title, instr, annotation, name, value, opt1, opt2 string) {
		fields := []crowd.Field{
			{Name: name, Label: value, Kind: crowd.FieldDisplay, Value: value},
			{Name: name, Label: instr, Kind: crowd.FieldInput},
			{Name: name, Label: opt1, Kind: crowd.FieldChoice, Options: []string{opt1, opt2}},
		}
		got := renderForm(title, crowd.TaskProbeValues, instr, annotation, fields)
		if want := oracleForm(t, title, crowd.TaskProbeValues, instr, annotation, fields); got != want {
			t.Fatalf("got  %q\nwant %q", got, want)
		}
	})
}

var formSink string

// A comparison form is instantiated, not executed: a handful of
// allocations (the field slices, the output buffer's growth steps), where
// running the template took 270.
func TestCompareEqualFormAllocs(t *testing.T) {
	m := NewManager(testCatalog(t))
	m.GenerateAll()
	allocs := testing.AllocsPerRun(200, func() {
		_, formSink, _ = m.CompareEqualForm("Same company?", "International Business Machines", "IBM Corp.")
	})
	if allocs > 10 {
		t.Errorf("CompareEqualForm: %.0f allocs/op, want <= 10", allocs)
	}
}

func BenchmarkRenderForm(b *testing.B) {
	m := NewManager(catalog.New())
	m.GenerateAll()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, formSink, _ = m.CompareEqualForm("Same company?", "International Business Machines", "IBM Corp.")
	}
}
