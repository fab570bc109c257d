package acquisition

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"runtime"
	"slices"
	"testing"

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
var goldenWorkloads = []string{"compute", "memory_read", "md"}

func TestCampaignGolden(t *testing.T) {
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
	for _, par := range []int{1, 2} {
		archives := sha256.New()
		opts := Options{
			Seed:        42,
			Parallelism: par,
			TraceSink: func(name string, data []byte) {
				hashBytes(archives, []byte(name))
				hashBytes(archives, data)
			},
		}
		ds, err := Acquire(opts, wls, []int{1200, 2400})
		if err != nil {
			t.Fatal(err)
		}
		if got := datasetDigest(ds); got != goldenDatasetSHA256 {
			t.Errorf("Parallelism %d: dataset digest %s, want %s", par, got, goldenDatasetSHA256)
		}
		if got := hex.EncodeToString(archives.Sum(nil)); got != goldenArchiveSHA256 {
			t.Errorf("Parallelism %d: archive digest %s, want %s", par, got, goldenArchiveSHA256)
		}
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
