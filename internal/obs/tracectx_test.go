package obs

import (
	"context"
	"strings"
	"testing"
)

func TestNewTraceContextWellFormed(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		tc := NewTraceContext()
		if !tc.Valid() {
			t.Fatalf("minted context invalid: %+v", tc)
		}
		if len(tc.TraceID) != 32 || len(tc.SpanID) != 16 {
			t.Fatalf("id lengths = %d/%d", len(tc.TraceID), len(tc.SpanID))
		}
		if seen[tc.TraceID] {
			t.Fatalf("trace id %s repeated within 1000 mints", tc.TraceID)
		}
		seen[tc.TraceID] = true
		if tc.TraceID != strings.ToLower(tc.TraceID) {
			t.Fatalf("trace id not lowercase: %s", tc.TraceID)
		}
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	tc := NewTraceContext()
	h := tc.Traceparent()
	got, ok := ParseTraceparent(h)
	if !ok || got != tc {
		t.Fatalf("round trip %q -> %+v ok=%v, want %+v", h, got, ok, tc)
	}
}

func TestParseTraceparent(t *testing.T) {
	valid := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	cases := []struct {
		in string
		ok bool
	}{
		{valid, true},
		{" " + valid + " ", true}, // surrounding whitespace tolerated
		{"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", true}, // future version parses as 00
		{valid + "-extrafield", true},                                     // future versions may append fields
		{"", false},
		{"garbage", false},
		{"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7", false},    // missing flags
		{"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", false}, // version ff reserved
		{"00-00000000000000000000000000000000-00f067aa0ba902b7-01", false}, // all-zero trace id
		{"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", false}, // all-zero span id
		{"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01", false}, // uppercase hex
		{"00-4bf92f3577b34da6a3ce929d0e0e47-00f067aa0ba902b7-01", false},   // short trace id
		{"zz-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", false}, // non-hex version
	}
	for _, c := range cases {
		tc, ok := ParseTraceparent(c.in)
		if ok != c.ok {
			t.Errorf("ParseTraceparent(%q) ok = %v, want %v", c.in, ok, c.ok)
		}
		if ok && !tc.Valid() {
			t.Errorf("ParseTraceparent(%q) returned invalid context %+v", c.in, tc)
		}
	}
}

// FuzzParseTraceparent checks the parser of the traceparent header,
// which every HTTP request carries from outside: no input panics, and
// an accepted header yields valid ids that come back unchanged through
// Traceparent and a second parse.
func FuzzParseTraceparent(f *testing.F) {
	for _, s := range []string{
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00F067AA0BA902B7-01",
		"00-00000000000000000000000000000000-0000000000000000-01",
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra",
		" \t00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01 \n",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, h string) {
		tc, ok := ParseTraceparent(h)
		if !ok {
			return
		}
		if !tc.Valid() {
			t.Fatalf("ParseTraceparent(%q) accepted invalid ids %+v", h, tc)
		}
		again, ok := ParseTraceparent(tc.Traceparent())
		if !ok || again != tc {
			t.Fatalf("ParseTraceparent(%q) = %+v, but its Traceparent %q parses to %+v (ok %v)",
				h, tc, tc.Traceparent(), again, ok)
		}
	})
}

func TestContextPlumbing(t *testing.T) {
	if _, ok := TraceFromContext(context.Background()); ok {
		t.Fatal("empty context reports a trace")
	}
	tc := NewTraceContext()
	ctx := ContextWithTrace(context.Background(), tc)
	got, ok := TraceFromContext(ctx)
	if !ok || got != tc {
		t.Fatalf("TraceFromContext = %+v ok=%v, want %+v", got, ok, tc)
	}
}

func TestNewSpanIDConcurrent(t *testing.T) {
	const goroutines, per = 8, 200
	ids := make(chan string, goroutines*per)
	done := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		go func() {
			for i := 0; i < per; i++ {
				ids <- NewSpanID()
			}
			done <- struct{}{}
		}()
	}
	for g := 0; g < goroutines; g++ {
		<-done
	}
	close(ids)
	seen := make(map[string]bool)
	for id := range ids {
		if !validHexID(id, 16) {
			t.Fatalf("span id %q malformed", id)
		}
		if seen[id] {
			t.Fatalf("span id %q repeated", id)
		}
		seen[id] = true
	}
}
