package storage

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"

	"crowddb/internal/jsonline"
	"crowddb/internal/sqltypes"
)

// Row is a tuple of values, positionally matching the table's columns.
//
// Rows returned by the store are read-only; clone before you write. A
// committed version's image is installed once — the row a writer hands
// Txn.Insert or returns from Txn.Update's change becomes the store's —
// and is never written again, so every read path (scans,
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
// b=bool. Rows are decoded through it; appendRow encodes them without it.
type wireValue struct {
	K string          `json:"k"`
	V json.RawMessage `json:"v,omitempty"`
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
func EncodeRow(r Row) ([]byte, error) { return appendRow(nil, r) }

// appendRow appends the wire form of r to dst: a JSON array of wireValue
// objects, byte for byte what encoding/json makes of them, with no
// intermediate values (jsonline writes the strings and floats). A NaN or
// infinite FLOAT fails as json.Marshal fails on it; dst is then returned
// as it was.
func appendRow(dst []byte, r Row) ([]byte, error) {
	b := append(dst, '[')
	for i, v := range r {
		if i > 0 {
			b = append(b, ',')
		}
		switch v.Kind() {
		case sqltypes.KindNull:
			b = append(b, `{"k":"n"}`...)
		case sqltypes.KindCNull:
			b = append(b, `{"k":"c"}`...)
		case sqltypes.KindString:
			b = jsonline.AppendString(append(b, `{"k":"s","v":`...), v.Str())
			b = append(b, '}')
		case sqltypes.KindInt:
			b = strconv.AppendInt(append(b, `{"k":"i","v":`...), v.Int(), 10)
			b = append(b, '}')
		case sqltypes.KindFloat:
			f := v.Float()
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return dst, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
			}
			b = jsonline.AppendFloat(append(b, `{"k":"f","v":`...), f)
			b = append(b, '}')
		case sqltypes.KindBool:
			b = strconv.AppendBool(append(b, `{"k":"b","v":`...), v.Bool())
			b = append(b, '}')
		default:
			return dst, fmt.Errorf("storage: cannot encode value kind %v", v.Kind())
		}
	}
	return append(b, ']'), nil
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
