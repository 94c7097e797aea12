package storage

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"crowddb/internal/sqltypes"
)

// refEncodeRow is EncodeRow as encoding/json writes it: each value a
// wireValue whose V is json.Marshal of the Go value, the row
// json.Marshal of them.
func refEncodeRow(r Row) ([]byte, error) {
	ws := make([]wireValue, len(r))
	for i, v := range r {
		var raw []byte
		var err error
		switch v.Kind() {
		case sqltypes.KindNull:
			ws[i].K = "n"
		case sqltypes.KindCNull:
			ws[i].K = "c"
		case sqltypes.KindString:
			ws[i].K = "s"
			raw, err = json.Marshal(v.Str())
		case sqltypes.KindInt:
			ws[i].K = "i"
			raw, err = json.Marshal(v.Int())
		case sqltypes.KindFloat:
			ws[i].K = "f"
			raw, err = json.Marshal(v.Float())
		case sqltypes.KindBool:
			ws[i].K = "b"
			raw, err = json.Marshal(v.Bool())
		default:
			return nil, fmt.Errorf("storage: cannot encode value kind %v", v.Kind())
		}
		if err != nil {
			return nil, err
		}
		ws[i].V = raw
	}
	return json.Marshal(ws)
}

// fuzzRow builds a row of every kind from the fuzzer's inputs.
func fuzzRow(s string, i int64, f float64, b bool) Row {
	return Row{sqltypes.NewString(s), sqltypes.NewInt(i), sqltypes.NewFloat(f), sqltypes.NewBool(b),
		sqltypes.Null(), sqltypes.CNull()}
}

// FuzzEncodeRow: appendRow, and a WAL record encoded with it, are byte
// for byte what encoding/json makes of the same row and record, and fail
// with json's error where it fails (a NaN or infinite FLOAT).
func FuzzEncodeRow(f *testing.F) {
	for _, seed := range []struct {
		s string
		i int64
		f float64
	}{
		{"CrowdDB", 100, 2.5},
		{`Qurk <&> "quoted"`, -42, 0},
		{"line\u2028para\u2029end", math.MaxInt64, math.Copysign(0, -1)},
		{"bad \xff\xfe utf8 \xc3", math.MinInt64, 1e21},
		{"ctl \x00\x01\b\f\n\r\t\x1f\x7f \\ /", 0, 1e-7},
		{"é ☃ 𝄞", 1, 1e20},
		{"", -1, 123456789.125},
		{"\xed\xa0\x80 surrogate", 7, 5e-324},
		{"tab\there", 9, math.MaxFloat64},
		{"x", 3, math.NaN()},
		{"y", 4, math.Inf(-1)},
	} {
		f.Add(seed.s, seed.i, seed.f, true, "Talk", int64(3))
	}
	f.Fuzz(func(t *testing.T, s string, i int64, fl float64, b bool, table string, lsn int64) {
		row := fuzzRow(s, i, fl, b)
		want, werr := refEncodeRow(row)
		got, gerr := appendRow([]byte("keep"), row)
		if (werr == nil) != (gerr == nil) || werr != nil && werr.Error() != gerr.Error() {
			t.Fatalf("%v: error %v, encoding/json %v", row, gerr, werr)
		}
		if werr != nil {
			if string(got) != "keep" {
				t.Fatalf("a failed encode appended %q", got)
			}
			return
		}
		if !bytes.Equal(got[len("keep"):], want) {
			t.Fatalf("%v:\n got %s\nwant %s", row, got[4:], want)
		}
		back, err := DecodeRow(want)
		if err != nil || len(back) != len(row) {
			t.Fatalf("%s decodes to %v, %v", want, back, err)
		}
		for _, op := range []string{"insert", "update", "delete"} {
			rec := walRecord{Op: op, Table: table, Row: RowID(i), LSN: lsn}
			var data Row
			if op != "delete" {
				rec.Data, data = want, row
			}
			wantRec, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			gotRec, err := rec.appendJSON(nil, data)
			if err != nil || !bytes.Equal(gotRec, wantRec) {
				t.Fatalf("%s record:\n got %s, %v\nwant %s", op, gotRec, err, wantRec)
			}
		}
	})
}

// TestAppendRowAllocatesNothing: a row encodes into a buffer with room
// for it with no allocation.
func TestAppendRowAllocatesNothing(t *testing.T) {
	row := fuzzRow(`Qurk <&> "quoted"`, 42, 2.5, true)
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(100, func() { appendRow(buf, row) }); n != 0 {
		t.Errorf("appendRow into a roomy buffer allocates %v times", n)
	}
}
