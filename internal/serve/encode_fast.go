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
// captured from the encoding/json path), and it holds for every row a
// stream can write: core refuses a sample whose instant watts,
// smoothed watts or energy would be non-finite (ErrNonFinite), and a
// row's trace id is empty or a lowercase-hex id that
// obs.ParseTraceparent validated or NewTraceContext minted, which
// needs no escaping.

// appendJSONFloat appends the finite f exactly as encoding/json's
// floatEncoder does: shortest representation, 'f' form within
// [1e-6, 1e21), 'e' form outside it with a single-digit exponent
// unpadded.
func appendJSONFloat(b []byte, f float64) []byte {
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
	return b
}

// writeEstimateFast writes we's json.Encoder encoding (object plus
// trailing newline) to bw through the reusable *buf.
func writeEstimateFast(bw *bufio.Writer, buf *[]byte, we wireEstimate) {
	b := append((*buf)[:0], `{"time_ns":`...)
	b = strconv.AppendUint(b, we.TimeNs, 10)
	b = append(b, `,"instant_w":`...)
	b = appendJSONFloat(b, we.InstantW)
	b = append(b, `,"smoothed_w":`...)
	b = appendJSONFloat(b, we.SmoothedW)
	b = append(b, `,"total_j":`...)
	b = appendJSONFloat(b, we.TotalJ)
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
}
