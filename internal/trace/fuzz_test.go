package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"testing"

	"pmcpower/internal/rng"
)

// TestReaderSurvivesGarbage feeds the reader random byte streams: it
// must always return an error (or a truncated-but-valid prefix), never
// panic or spin.
func TestReaderSurvivesGarbage(t *testing.T) {
	r := rng.New(99)
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(300)
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = byte(r.Uint64())
		}
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("trial %d: reader panicked on garbage: %v", trial, p)
				}
			}()
			rd, err := NewReader(bytes.NewReader(buf))
			if err != nil {
				return // rejected at the header — fine
			}
			// Drain with a hard cap: garbage must not produce
			// unbounded events.
			for i := 0; i < 10000; i++ {
				if _, err := rd.Next(); err != nil {
					return
				}
			}
			t.Fatalf("trial %d: garbage stream produced 10000 events", trial)
		}()
	}
}

// TestReaderSurvivesCorruptedValidTrace flips bytes inside a valid
// archive: the reader must fail cleanly or deliver a sane prefix.
func TestReaderSurvivesCorruptedValidTrace(t *testing.T) {
	valid := buildSample(t).Bytes()
	r := rng.New(7)
	for trial := 0; trial < 300; trial++ {
		buf := append([]byte(nil), valid...)
		// Flip 1–4 bytes after the magic.
		for k := 0; k <= r.Intn(4); k++ {
			pos := len(Magic) + r.Intn(len(buf)-len(Magic))
			buf[pos] ^= byte(1 + r.Intn(255))
		}
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("trial %d: reader panicked on corruption: %v", trial, p)
				}
			}()
			rd, err := NewReader(bytes.NewReader(buf))
			if err != nil {
				return
			}
			count := 0
			for {
				ev, err := rd.Next()
				if err != nil {
					return // clean failure or EOF
				}
				// Whatever is delivered must be structurally sane.
				if ev.Kind != KindEnter && ev.Kind != KindLeave && ev.Kind != KindMetric {
					t.Fatalf("trial %d: reader delivered invalid kind %d", trial, ev.Kind)
				}
				count++
				if count > 1000 {
					t.Fatalf("trial %d: corrupted 4-event archive produced >1000 events", trial)
				}
			}
		}()
	}
}

// TestReaderRejectsHugeDefinitionCounts: the definition counts are
// attacker-controlled uvarints that size append loops; a hostile
// archive declaring 2^62 locations must be rejected with a descriptive
// error before the reader allocates anything proportional to the
// claim, not after grinding through EOF.
func TestReaderRejectsHugeDefinitionCounts(t *testing.T) {
	uv := func(v uint64) []byte {
		var buf [binary.MaxVarintLen64]byte
		return buf[:binary.PutUvarint(buf[:], v)]
	}
	huge := uint64(1) << 62
	cases := map[string][]byte{
		// Count fields beyond MaxDefinitions in each of the three slots.
		"locations": append([]byte(Magic), uv(huge)...),
		"regions":   append(append([]byte(Magic), uv(0)...), uv(huge)...),
		"metrics":   append(append(append([]byte(Magic), uv(0)...), uv(0)...), uv(huge)...),
		// Just past the limit must also be rejected.
		"limit+1": append([]byte(Magic), uv(MaxDefinitions+1)...),
	}
	for name, buf := range cases {
		_, err := NewReader(bytes.NewReader(buf))
		if err == nil {
			t.Fatalf("%s: huge definition count must be rejected", name)
		}
		if !strings.Contains(err.Error(), "limit") {
			t.Fatalf("%s: error %q does not describe the definition limit", name, err)
		}
	}
	// The limit itself is about the count claim, not real content: a
	// truthful archive with zero definitions still opens.
	ok := append(append(append([]byte(Magic), uv(0)...), uv(0)...), uv(0)...)
	if _, err := NewReader(bytes.NewReader(ok)); err != nil {
		t.Fatalf("empty definition sections must open: %v", err)
	}
}

// TestReaderRejectsOutOfRangeRefs: event refs are attacker-controlled
// uvarints up to 2^64-1 that index the definition tables. Values of
// 2^63 and above are negative as an int, and 2^32 and above truncate
// to a valid Ref, so each must be rejected as undefined before it is
// used, never panic.
func TestReaderRejectsOutOfRangeRefs(t *testing.T) {
	uv := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	// One location, one region and one metric, all with empty names.
	header := append([]byte(Magic), 1, 0, 1, 0, 1, 0, 0, byte(MetricAsync))
	event := func(kind EventKind, loc, ref uint64) []byte {
		b := append(append([]byte(nil), header...), byte(kind))
		b = append(append(b, uv(loc)...), 0) // time delta 0
		b = append(b, uv(ref)...)
		if kind == KindMetric {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(1))
		}
		return b
	}
	cases := map[string][]byte{
		// Enter on location 2^63 of a one-location archive with no
		// regions or metrics.
		"minimal location 2^63": []byte("PMCTRC.1\x01\x00\x00\x00\x01\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01\x00"),
	}
	for _, v := range []uint64{1, 1 << 32, 1 << 63, math.MaxUint64} {
		cases[fmt.Sprintf("location %d", v)] = event(KindMetric, v, 0)
		cases[fmt.Sprintf("region %d", v)] = event(KindEnter, 0, v)
		cases[fmt.Sprintf("metric %d", v)] = event(KindMetric, 0, v)
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			_, events, err := decodeAll(data)
			if err == nil || !strings.Contains(err.Error(), "undefined") {
				t.Fatalf("decoded %d events, error %v; want an undefined-reference error", len(events), err)
			}
		})
	}
	// The same header with in-range refs decodes, so each case above
	// fails on its ref alone.
	for _, data := range [][]byte{event(KindEnter, 0, 0), event(KindMetric, 0, 0)} {
		if _, events, err := decodeAll(data); err != nil || len(events) != 1 {
			t.Fatalf("in-range refs: %d events, %v", len(events), err)
		}
	}
}

// TestReaderEmptyInput covers the zero-byte corner.
func TestReaderEmptyInput(t *testing.T) {
	if _, err := NewReader(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input must be rejected")
	}
	if _, err := NewReader(bytes.NewReader([]byte(Magic))); err == nil {
		// Magic alone, no definition counts.
		t.Fatal("header-only input must be rejected")
	}
}

// TestReadAllAfterEOF: repeated reads at EOF stay at EOF.
func TestReadAllAfterEOF(t *testing.T) {
	buf := buildSample(t)
	rd, err := NewReader(buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := readAll(rd); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := rd.Next(); !errors.Is(err, io.EOF) {
			t.Fatalf("read after EOF returned %v", err)
		}
	}
}

// FuzzReader drives the decoder with arbitrary bytes. Properties:
//   - it never panics;
//   - it delivers at most one event per input byte;
//   - an archive the Writer produced round-trips exactly: re-encoding
//     whatever the reader decoded and decoding that again yields the
//     same definitions, the same events and, encoded once more, the
//     same bytes.
//
// The seed corpus under testdata/fuzz/FuzzReader holds a small Writer
// archive, truncations of it, hostile definition counts, and event
// refs far past the definition tables.
func FuzzReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		defs, events, err := decodeAll(data)
		if len(events) > len(data) {
			t.Fatalf("%d input bytes produced %d events", len(data), len(events))
		}
		if err != nil {
			return
		}
		archive, ok := encodeAll(defs, events)
		if !ok {
			return // decodable, but not something the Writer emits (e.g. time order)
		}
		defs2, events2, err := decodeAll(archive)
		if err != nil {
			t.Fatalf("Writer archive does not decode: %v", err)
		}
		if !sameDefinitions(defs, defs2) || !sameEvents(events, events2) {
			t.Fatal("Writer archive did not round-trip")
		}
		again, ok := encodeAll(defs2, events2)
		if !ok || !bytes.Equal(again, archive) {
			t.Fatal("re-encoding a Writer archive changed its bytes")
		}
	})
}

// decodeAll reads a whole archive; the events before an error are
// still returned.
func decodeAll(data []byte) (*Definitions, []Event, error) {
	rd, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, nil, err
	}
	var events []Event
	for {
		ev, err := rd.Next()
		if errors.Is(err, io.EOF) {
			return rd.Definitions(), events, nil
		}
		if err != nil {
			return rd.Definitions(), events, err
		}
		events = append(events, ev)
	}
}

// encodeAll writes defs and events through a Writer, reporting false
// when the Writer rejects them.
func encodeAll(defs *Definitions, events []Event) ([]byte, bool) {
	var buf bytes.Buffer
	w := NewWriter(&buf, defs)
	for _, ev := range events {
		if err := w.WriteEvent(ev); err != nil {
			return nil, false
		}
	}
	if err := w.Close(); err != nil {
		return nil, false
	}
	return buf.Bytes(), true
}

func sameDefinitions(a, b *Definitions) bool {
	return slices.Equal(a.Locations, b.Locations) && slices.Equal(a.Regions, b.Regions) && slices.Equal(a.Metrics, b.Metrics)
}

// sameEvents compares event streams with values by bit pattern, so a
// NaN sample round-trips too.
func sameEvents(a, b []Event) bool {
	return slices.EqualFunc(a, b, func(x, y Event) bool {
		vx, vy := x.Value, y.Value
		x.Value, y.Value = 0, 0
		return x == y && math.Float64bits(vx) == math.Float64bits(vy)
	})
}
