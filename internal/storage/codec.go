package storage

import (
	"encoding/json"
	"fmt"

	"crowddb/internal/sqltypes"
)

// Row is a tuple of values, positionally matching the table's columns.
//
// Rows returned by the store are read-only; clone before you write. A
// committed version's image is installed once — the store clones what a
// writer hands it — and is never written again, so every read path (scans,
// point gets, primary-key and index probes) returns that one image,
// shared with all concurrent readers and with the snapshots still pinned
// on it, without copying. Writing through a returned row would change
// what those readers and snapshots see.
type Row []sqltypes.Value

// Clone returns an independent copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// wireValue is the JSON wire form of a value, used by the WAL and snapshots.
// K is a one-letter kind tag: n=NULL, c=CNULL, s=string, i=int, f=float,
// b=bool.
type wireValue struct {
	K string          `json:"k"`
	V json.RawMessage `json:"v,omitempty"`
}

func encodeValue(v sqltypes.Value) (wireValue, error) {
	switch v.Kind() {
	case sqltypes.KindNull:
		return wireValue{K: "n"}, nil
	case sqltypes.KindCNull:
		return wireValue{K: "c"}, nil
	case sqltypes.KindString:
		raw, err := json.Marshal(v.Str())
		return wireValue{K: "s", V: raw}, err
	case sqltypes.KindInt:
		raw, err := json.Marshal(v.Int())
		return wireValue{K: "i", V: raw}, err
	case sqltypes.KindFloat:
		raw, err := json.Marshal(v.Float())
		return wireValue{K: "f", V: raw}, err
	case sqltypes.KindBool:
		raw, err := json.Marshal(v.Bool())
		return wireValue{K: "b", V: raw}, err
	default:
		return wireValue{}, fmt.Errorf("storage: cannot encode value kind %v", v.Kind())
	}
}

func decodeValue(w wireValue) (sqltypes.Value, error) {
	switch w.K {
	case "n":
		return sqltypes.Null(), nil
	case "c":
		return sqltypes.CNull(), nil
	case "s":
		var s string
		if err := json.Unmarshal(w.V, &s); err != nil {
			return sqltypes.Value{}, err
		}
		return sqltypes.NewString(s), nil
	case "i":
		var i int64
		if err := json.Unmarshal(w.V, &i); err != nil {
			return sqltypes.Value{}, err
		}
		return sqltypes.NewInt(i), nil
	case "f":
		var f float64
		if err := json.Unmarshal(w.V, &f); err != nil {
			return sqltypes.Value{}, err
		}
		return sqltypes.NewFloat(f), nil
	case "b":
		var b bool
		if err := json.Unmarshal(w.V, &b); err != nil {
			return sqltypes.Value{}, err
		}
		return sqltypes.NewBool(b), nil
	default:
		return sqltypes.Value{}, fmt.Errorf("storage: unknown wire kind %q", w.K)
	}
}

// EncodeRow serializes a row for the WAL / snapshots.
func EncodeRow(r Row) ([]byte, error) {
	ws := make([]wireValue, len(r))
	for i, v := range r {
		w, err := encodeValue(v)
		if err != nil {
			return nil, err
		}
		ws[i] = w
	}
	return json.Marshal(ws)
}

// DecodeRow is the inverse of EncodeRow.
func DecodeRow(data []byte) (Row, error) {
	var ws []wireValue
	if err := json.Unmarshal(data, &ws); err != nil {
		return nil, err
	}
	r := make(Row, len(ws))
	for i, w := range ws {
		v, err := decodeValue(w)
		if err != nil {
			return nil, err
		}
		r[i] = v
	}
	return r, nil
}
