package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Golden wire transcripts. The files under testdata/*.golden record
// the exact responses — status, Content-Type and body — that the
// encoding/json-only serving path (no fast parse or encode, a flush
// per sample, a single-lock session table) gave for the exchanges
// below. The default server must reproduce them byte for byte, so the
// fast paths stay optimizations and never change what a client sees.

// equivSpec is one request of an equivalence transcript.
type equivSpec struct {
	method string
	path   string
	body   string
}

// reply is what one equivSpec got back.
type reply struct {
	status      int
	contentType string
	body        []byte
}

// equivServer serves the fixture model as "m" on a fixed clock, so
// that two servers, or a server and a committed transcript, see
// identical inputs.
func equivServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	m, _ := fixture(t)
	cfg.Now = func() time.Time { return time.Unix(1_700_000_000, 0) }
	cfg.Registry = NewRegistry()
	if _, err := cfg.Registry.Add("m", m); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, cfg)
	return ts
}

// send performs one request under the given W3C traceparent.
func send(t *testing.T, ts *httptest.Server, spec equivSpec, trace string) reply {
	t.Helper()
	req, err := http.NewRequest(spec.method, ts.URL+spec.path, strings.NewReader(spec.body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", trace)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return reply{status: resp.StatusCode, contentType: resp.Header.Get("Content-Type"), body: raw}
}

// specTrace is the traceparent of the i-th exchange of a transcript;
// the trace id comes back in every row, so it must be fixed.
func specTrace(i int) string {
	return fmt.Sprintf("00-%032x-%016x-01", i+1, i+1)
}

// recordTranscript sends every spec in order to ts.
func recordTranscript(t *testing.T, ts *httptest.Server, specs []equivSpec) []reply {
	t.Helper()
	out := make([]reply, len(specs))
	for i, spec := range specs {
		out[i] = send(t, ts, spec, specTrace(i))
	}
	return out
}

// renderTranscript writes the exchanges in the golden file format: a
// header naming the request, the status, the Content-Type and the body
// length, then the body bytes verbatim and a blank line. The length
// makes the format unambiguous whatever the body holds.
func renderTranscript(specs []equivSpec, replies []reply) []byte {
	var b bytes.Buffer
	for i, spec := range specs {
		r := replies[i]
		fmt.Fprintf(&b, "=== %d %s %s\nstatus: %d\ncontent-type: %s\nbody: %d bytes\n",
			i, spec.method, spec.path, r.status, r.contentType, len(r.body))
		b.Write(r.body)
		b.WriteString("\n\n")
	}
	return b.Bytes()
}

// checkGolden compares a rendered transcript with the committed file
// byte for byte, reporting the exchange where they first diverge. It
// skips the comparison off linux/amd64 (call it last, after the
// platform-independent checks): the transcripts were captured there,
// and the Go spec lets other targets fuse x*y+z into one rounding,
// which moves the last bits of the fitted model and so of every
// estimate.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skipf("golden transcripts are captured on linux/amd64; %s/%s may fuse multiply-adds", runtime.GOOS, runtime.GOARCH)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	header := want[max(bytes.LastIndex(want[:i], []byte("=== ")), 0):]
	if nl := bytes.IndexByte(header, '\n'); nl >= 0 {
		header = header[:nl]
	}
	t.Errorf("%s: transcript diverges at byte %d, in %q\n got: %q\nwant: %q",
		path, i, header, around(got, i), around(want, i))
}

// around returns up to 60 bytes either side of offset i.
func around(b []byte, i int) []byte {
	lo, hi := max(i-60, 0), min(i+60, len(b))
	if lo > hi {
		lo = hi
	}
	return b[lo:hi]
}
