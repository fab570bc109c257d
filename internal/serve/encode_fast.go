package serve

import (
	"bufio"
	"math"
	"strconv"
)

// Fast-path NDJSON estimate encoding.
//
// The estimate response is one fixed-shape object per accepted
// sample; json.Encoder re-walks the struct type for every line. This
// appender emits the identical bytes — field order, float formatting,
// omitempty, trailing newline — without reflection. Identity with
// encoding/json is load-bearing (the wire and shard equivalence tests
// compare response bodies byte for byte against golden transcripts
// captured from the encoding/json path), so anything the appender
// cannot prove it reproduces exactly — a non-finite float — returns
// false and the caller falls back to json.Encoder. The trace id is
// checked once per stream, not per row: a stream whose id would need
// escaping (jsonSafeString) writes every row through json.Encoder.

// appendJSONFloat appends f exactly as encoding/json's floatEncoder
// does: shortest representation, 'f' form within [1e-6, 1e21), 'e'
// form outside it with a single-digit exponent unpadded.
func appendJSONFloat(b []byte, f float64) ([]byte, bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, false // json.Encoder errors on these; let it
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// clean up e-09 to e-9, as encoding/json does
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}

// jsonSafeString reports whether s encodes as itself between quotes
// under json.Encoder's default HTML-escaping rules (no control
// characters, quotes, backslashes, angle brackets, ampersands, or
// non-ASCII bytes).
func jsonSafeString(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// writeEstimateFast writes we's json.Encoder encoding (object plus
// trailing newline) to bw through the reusable *buf, or returns false
// leaving bw untouched so the caller can use the real encoder. The
// caller has checked we.TraceID with jsonSafeString.
func writeEstimateFast(bw *bufio.Writer, buf *[]byte, we wireEstimate) bool {
	b := append((*buf)[:0], `{"time_ns":`...)
	b = strconv.AppendUint(b, we.TimeNs, 10)
	b = append(b, `,"instant_w":`...)
	b, ok := appendJSONFloat(b, we.InstantW)
	if !ok {
		return false
	}
	b = append(b, `,"smoothed_w":`...)
	b, ok = appendJSONFloat(b, we.SmoothedW)
	if !ok {
		return false
	}
	b = append(b, `,"total_j":`...)
	b, ok = appendJSONFloat(b, we.TotalJ)
	if !ok {
		return false
	}
	b = append(b, `,"samples":`...)
	b = strconv.AppendUint(b, we.Samples, 10)
	b = append(b, `,"model_version":`...)
	b = strconv.AppendUint(b, we.ModelVersion, 10)
	if we.TraceID != "" {
		b = append(b, `,"trace_id":"`...)
		b = append(b, we.TraceID...)
		b = append(b, '"')
	}
	b = append(b, '}', '\n')
	*buf = b
	bw.Write(b)
	return true
}
