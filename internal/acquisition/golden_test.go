package acquisition

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"runtime"
	"slices"
	"testing"

	"pmcpower/internal/phaseprofile"
	"pmcpower/internal/pmu"
	"pmcpower/internal/workloads"
)

// Golden fingerprints of one seeded campaign over every counter (so
// every multiplexed run of the plan) at two P-states. They pin the
// campaign bit for bit: the dataset a model is trained on, and every
// trace archive byte the recorder writes. A change that moves either
// digest changes published numbers or the archive format, and must
// say so.
const (
	goldenDatasetSHA256 = "bd7a1b68064d9608ab3094bc20063a43799e9e1992cece8244114e2bbc761bd5"
	goldenArchiveSHA256 = "e15d24977715319f4f71af9f33b3bf39fdeb951cc0215bfd1d15787f8093b1ff"
)

// goldenWorkloads covers a multi-step roco2 kernel, a memory-bound
// kernel and a multi-phase SPEC benchmark.
var (
	goldenWorkloads = []string{"compute", "memory_read", "md"}
	goldenFreqs     = []int{1200, 2400}
)

// goldenCampaign returns the golden campaign's workloads, skipping the
// test where the digests cannot hold.
func goldenCampaign(t *testing.T) []*workloads.Workload {
	t.Helper()
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		// The Go spec lets a compiler fuse x*y+z into one rounding on
		// other targets (arm64, ppc64le, s390x, riscv64), which moves
		// the last bits of the simulated measurements. The digests
		// were captured on linux/amd64, which never fuses.
		t.Skipf("golden digests are captured on linux/amd64; %s/%s may fuse multiply-adds", runtime.GOOS, runtime.GOARCH)
	}
	var wls []*workloads.Workload
	for _, name := range goldenWorkloads {
		wls = append(wls, workloads.MustByName(name))
	}
	return wls
}

// TestCampaignGolden runs the golden campaign serially and in
// parallel, with and without a TraceSink: without one no archive is
// encoded, and the dataset must not notice.
func TestCampaignGolden(t *testing.T) {
	wls := goldenCampaign(t)
	for _, par := range []int{1, 2} {
		for _, sunk := range []bool{true, false} {
			archives := sha256.New()
			opts := Options{Seed: 42, Parallelism: par}
			if sunk {
				opts.TraceSink = func(name string, data []byte) {
					hashBytes(archives, []byte(name))
					hashBytes(archives, data)
				}
			}
			ds, err := Acquire(opts, wls, goldenFreqs)
			if err != nil {
				t.Fatal(err)
			}
			if got := datasetDigest(ds); got != goldenDatasetSHA256 {
				t.Errorf("Parallelism %d, sink %v: dataset digest %s, want %s", par, sunk, got, goldenDatasetSHA256)
			}
			if got := hex.EncodeToString(archives.Sum(nil)); sunk && got != goldenArchiveSHA256 {
				t.Errorf("Parallelism %d: archive digest %s, want %s", par, got, goldenArchiveSHA256)
			}
		}
	}
}

// TestGoldenArchivesRebuildDataset: the archives the golden campaign
// sinks say what the recorder folded. Post-processing them offline
// (FromTrace, CombineRuns, rows) must reproduce the golden dataset.
func TestGoldenArchivesRebuildDataset(t *testing.T) {
	wls := goldenCampaign(t)
	archives := map[string][]byte{}
	opts := Options{Seed: 42, TraceSink: func(name string, data []byte) { archives[name] = data }}
	if _, err := Acquire(opts, wls, goldenFreqs); err != nil {
		t.Fatal(err)
	}
	ds := &Dataset{}
	used := 0
	for _, w := range wls {
		for _, f := range goldenFreqs {
			var runs [][]*phaseprofile.Phase
			for run := 0; ; run++ {
				data, ok := archives[fmt.Sprintf("%s_%dMHz_run%d.trc", w.Name, f, run)]
				if !ok {
					break
				}
				phases, err := phaseprofile.FromTrace(bytes.NewReader(data), w.Name)
				if err != nil {
					t.Fatalf("%s @ %d MHz run %d: %v", w.Name, f, run, err)
				}
				runs = append(runs, phases)
			}
			merged, err := phaseprofile.CombineRuns(runs...)
			if err != nil {
				t.Fatalf("%s @ %d MHz: %v", w.Name, f, err)
			}
			rows, err := rowsFromPhases(w, f, merged)
			if err != nil {
				t.Fatal(err)
			}
			ds.Rows = append(ds.Rows, rows...)
			used += len(runs)
		}
	}
	if used != len(archives) {
		t.Fatalf("rebuilt from %d of %d archives", used, len(archives))
	}
	sortRows(ds.Rows)
	if got := datasetDigest(ds); got != goldenDatasetSHA256 {
		t.Errorf("dataset rebuilt from archives: digest %s, want %s", got, goldenDatasetSHA256)
	}
}

// datasetDigest hashes every row's identity and the float64 bits of
// its power, voltage and rates, the rates in event-ID order.
func datasetDigest(ds *Dataset) string {
	h := sha256.New()
	for _, r := range ds.Rows {
		hashBytes(h, []byte(r.Workload))
		hashUint(h, uint64(r.FreqMHz))
		hashUint(h, uint64(r.Threads))
		hashUint(h, math.Float64bits(r.PowerW))
		hashUint(h, math.Float64bits(r.VoltageV))
		ids := make([]pmu.EventID, 0, len(r.Rates))
		for id := range r.Rates {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		hashUint(h, uint64(len(ids)))
		for _, id := range ids {
			hashUint(h, uint64(id))
			hashUint(h, math.Float64bits(r.Rates[id]))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// hashBytes writes a length-prefixed byte string, so concatenated
// fields cannot alias.
func hashBytes(h hash.Hash, b []byte) {
	hashUint(h, uint64(len(b)))
	h.Write(b)
}

func hashUint(h hash.Hash, v uint64) {
	h.Write(binary.LittleEndian.AppendUint64(nil, v))
}
