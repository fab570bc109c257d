package serve

import (
	"math/rand"
	"strconv"
	"testing"
)

// benchRateNames are the six events of the bench's calibrated model, in
// the order bench/traffic.go renders them.
var benchRateNames = []string{"PAPI_LST_INS", "PAPI_STL_CCY", "PAPI_L3_TCM", "PAPI_TOT_CYC", "PAPI_BR_UCN", "PAPI_BR_TKN"}

// benchLines renders n bench-shaped NDJSON lines: the key order and the
// shortest float spellings bench/traffic.go writes, with no whitespace.
// With reorder, every other line lists its rates in reverse order, so
// no two consecutive lines share a shape.
func benchLines(n int, labelled, reorder bool) [][]byte {
	rng := rand.New(rand.NewSource(1))
	jit := func(v float64) float64 { return v * (1 + 0.05*(2*rng.Float64()-1)) }
	base := []float64{2.4e9, 1.1e8, 7.5e4, 2.1e9, 2.4e7, 2.2e8}
	lines := make([][]byte, n)
	for j := range lines {
		b := []byte(`{"time_ns":`)
		b = strconv.AppendUint(b, uint64(j+1)*1e6, 10)
		b = append(b, `,"freq_mhz":2400,"voltage_v":`...)
		b = strconv.AppendFloat(b, jit(1.05), 'g', -1, 64)
		b = append(b, `,"rates":{`...)
		for k := range benchRateNames {
			i := k
			if reorder && j%2 == 1 {
				i = len(benchRateNames) - 1 - k
			}
			if k > 0 {
				b = append(b, ',')
			}
			b = append(b, '"')
			b = append(b, benchRateNames[i]...)
			b = append(b, `":`...)
			b = strconv.AppendFloat(b, jit(base[i]), 'g', -1, 64)
		}
		b = append(b, '}')
		if labelled {
			b = append(b, `,"power_w":`...)
			b = strconv.AppendFloat(b, jit(70), 'g', -1, 64)
		}
		lines[j] = append(b, '}')
	}
	return lines
}

// BenchmarkParseSample times parseSampleInto on bench-shaped lines
// through one workspace, as one estimate stream parses them; ns/op is
// ns per line. "steady" lines all share one shape, as every line of
// the bench's stream workloads does; "alternating" lines switch rate
// order on every line, so no line parses against its predecessor's
// shape.
func BenchmarkParseSample(b *testing.B) {
	for _, tc := range []struct {
		name              string
		labelled, reorder bool
	}{
		{"unlabelled/steady", false, false},
		{"unlabelled/alternating", false, true},
		{"labelled/steady", true, false},
		{"labelled/alternating", true, true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			lines := benchLines(64, tc.labelled, tc.reorder)
			var ps parseScratch
			for _, line := range lines {
				if _, _, _, _, err := parseSampleInto(line, &ps); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, _, _, err := parseSampleInto(lines[i%len(lines)], &ps); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
