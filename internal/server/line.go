package server

import (
	"math"
	"strconv"

	"crowddb/internal/exec"
	"crowddb/internal/jsonline"
	"crowddb/internal/sqltypes"
)

// The one appender of every line the server writes about a job: a row of
// a stream, and the job resource — the submit-and-stream head, the
// trailer, and the plain 202, GET and DELETE bodies. Both write exactly
// the bytes json.Marshal writes for the same value (FuzzLineCodec holds
// them to it), without reflection and without a value per cell.

// appendRow appends row as one row line, without its newline: a JSON
// array with one string per cell, null for SQL NULL and CNULL.
func appendRow(dst []byte, row exec.Row) []byte {
	dst = append(dst, '[')
	for i, v := range row {
		if i > 0 {
			dst = append(dst, ',')
		}
		switch v.Kind() {
		case sqltypes.KindNull, sqltypes.KindCNull:
			dst = append(dst, "null"...)
		case sqltypes.KindInt: // the cell is v.String(), without a string per cell
			dst = append(strconv.AppendInt(append(dst, '"'), v.Int(), 10), '"')
		case sqltypes.KindFloat: // 'g' floats, NaN and ±Inf included, need no escaping either
			dst = append(strconv.AppendFloat(append(dst, '"'), v.Float(), 'g', -1, 64), '"')
		default:
			dst = jsonline.AppendString(dst, v.String())
		}
	}
	return append(dst, ']')
}

// appendInfo appends the job resource as one JSON object, without a
// newline, field for field as JobInfo's tags have json.Marshal write it.
// Where json.Marshal would fail — a NaN or infinite cents figure — the
// line is null, as it always was.
func appendInfo(dst []byte, in *JobInfo) []byte {
	for _, f := range [...]float64{in.PredictedCents, in.PredictedSeconds, in.SpentCents, in.ActualCents} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return append(dst, "null"...)
		}
	}
	dst = append(dst, `{"id":`...)
	dst = jsonline.AppendString(dst, in.ID)
	dst = append(dst, `,"state":`...)
	dst = jsonline.AppendString(dst, string(in.State))
	if in.Session != "" {
		dst = append(dst, `,"session":`...)
		dst = jsonline.AppendString(dst, in.Session)
	}
	if len(in.Columns) > 0 {
		dst = appendStrings(append(dst, `,"columns":`...), in.Columns)
	}
	dst = strconv.AppendInt(append(dst, `,"rows_emitted":`...), int64(in.RowsEmitted), 10)
	if in.Affected != 0 {
		dst = strconv.AppendInt(append(dst, `,"affected":`...), int64(in.Affected), 10)
	}
	if in.Plan != "" {
		dst = append(dst, `,"plan":`...)
		dst = jsonline.AppendString(dst, in.Plan)
	}
	if len(in.Warnings) > 0 {
		dst = appendStrings(append(dst, `,"warnings":`...), in.Warnings)
	}
	dst = strconv.AppendInt(append(dst, `,"statements_done":`...), int64(in.StatementsDone), 10)
	st := &in.Stats // exec.Stats has no tags: its fields keep their Go names
	dst = strconv.AppendInt(append(dst, `,"stats":{"RowsScanned":`...), int64(st.RowsScanned), 10)
	dst = strconv.AppendInt(append(dst, `,"ProbeRequests":`...), int64(st.ProbeRequests), 10)
	dst = strconv.AppendInt(append(dst, `,"NewTupleRequests":`...), int64(st.NewTupleRequests), 10)
	dst = strconv.AppendInt(append(dst, `,"Comparisons":`...), int64(st.Comparisons), 10)
	dst = strconv.AppendInt(append(dst, `,"CacheHits":`...), int64(st.CacheHits), 10)
	dst = strconv.AppendInt(append(dst, `,"SharedFlights":`...), int64(st.SharedFlights), 10)
	dst = strconv.AppendInt(append(dst, `,"BudgetDenied":`...), int64(st.BudgetDenied), 10)
	dst = append(dst, '}')
	if in.PredictedCents != 0 {
		dst = jsonline.AppendFloat(append(dst, `,"predicted_cents":`...), in.PredictedCents)
	}
	if in.PredictedSeconds != 0 {
		dst = jsonline.AppendFloat(append(dst, `,"predicted_seconds":`...), in.PredictedSeconds)
	}
	dst = jsonline.AppendFloat(append(dst, `,"spent_cents":`...), in.SpentCents)
	if in.ActualCents != 0 {
		dst = jsonline.AppendFloat(append(dst, `,"actual_cents":`...), in.ActualCents)
	}
	if in.SnapshotTS != 0 {
		dst = strconv.AppendInt(append(dst, `,"snapshot_ts":`...), in.SnapshotTS, 10)
	}
	if in.TraceID != "" {
		dst = append(dst, `,"trace_id":`...)
		dst = jsonline.AppendString(dst, in.TraceID)
	}
	if e := in.Error; e != nil {
		dst = append(dst, `,"error":{"code":`...)
		dst = jsonline.AppendString(dst, string(e.Code))
		dst = append(dst, `,"message":`...)
		dst = jsonline.AppendString(dst, e.Message)
		dst = append(dst, '}')
	}
	return append(dst, '}')
}

// appendStrings appends ss as a JSON array of strings.
func appendStrings(dst []byte, ss []string) []byte {
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = jsonline.AppendString(dst, s)
	}
	return append(dst, ']')
}
