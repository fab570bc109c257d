// Package serve exposes trained Equation-1 power models as an
// always-on HTTP service — the run-time power monitor the paper
// motivates ("a growing need for accurate real-time power information
// for efficient power management"). It provides a model registry, a
// concurrency-safe session layer over core.StreamSession, streaming
// NDJSON estimation, batch prediction, and a text metrics endpoint.
package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"pmcpower/internal/core"
	"pmcpower/internal/pmu"
)

// ModelInfo describes one registered model version, as reported by
// GET /v1/models.
type ModelInfo struct {
	Name      string   `json:"name"`
	Version   int      `json:"version"`
	Latest    bool     `json:"latest"`
	Events    []string `json:"events"`
	R2        float64  `json:"r2"`
	Estimator string   `json:"estimator,omitempty"`
	TrainN    int      `json:"train_n,omitempty"`
}

// registrySnapshot is one immutable generation of the registry: the
// version table, the precomputed /v1/models listing, and the sole
// registered name (for empty-key resolution). Snapshots are never
// mutated after publication — a writer builds a fresh one and swaps
// the pointer — so readers need no lock at all.
type registrySnapshot struct {
	models map[string][]*core.Model
	infos  []ModelInfo
	// soleName is the only registered model name when exactly one is
	// registered (the unambiguous default for an empty lookup key), ""
	// otherwise.
	soleName string
}

// Registry holds deployed models keyed by name and version. Adding a
// model under an existing name appends a new version; lookups resolve
// either a bare name (latest version) or an explicit "name@version"
// key, so a monitoring fleet can pin estimates to the exact
// calibration that produced them.
//
// Reads are lock-free: every lookup is one atomic load of the current
// copy-on-write snapshot, so the estimate/predict hot paths never
// contend with each other or with a deploy. Add builds a new snapshot
// under a writer mutex and publishes it with an atomic swap — a model
// uploaded mid-traffic is either entirely absent or entirely present,
// never torn, and streams resolved against the old snapshot keep
// serving it unchanged.
type Registry struct {
	writeMu sync.Mutex
	snap    atomic.Pointer[registrySnapshot]
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	r := &Registry{}
	r.snap.Store(&registrySnapshot{models: map[string][]*core.Model{}})
	return r
}

// Add registers m under name and returns the version assigned to it
// (1 for a new name, previous+1 on redeploy).
func (r *Registry) Add(name string, m *core.Model) (int, error) {
	if name == "" || strings.Contains(name, "@") {
		return 0, fmt.Errorf("serve: invalid model name %q (must be non-empty, without '@')", name)
	}
	if m == nil {
		return 0, fmt.Errorf("serve: nil model for %q", name)
	}
	r.writeMu.Lock()
	defer r.writeMu.Unlock()
	old := r.snap.Load()
	models := make(map[string][]*core.Model, len(old.models)+1)
	for n, vs := range old.models {
		models[n] = vs // published slices are immutable; share them
	}
	// The updated name gets a fresh backing array: appending in place
	// could write into an array a published snapshot still references.
	models[name] = append(append([]*core.Model(nil), old.models[name]...), m)
	next := &registrySnapshot{models: models}
	next.infos = buildInfos(models)
	if len(models) == 1 {
		next.soleName = name
	}
	r.snap.Store(next)
	return len(models[name]), nil
}

// buildInfos precomputes the sorted /v1/models listing for a snapshot,
// so List on the read path is a pointer load instead of a sort.
func buildInfos(models map[string][]*core.Model) []ModelInfo {
	var out []ModelInfo
	names := make([]string, 0, len(models))
	for n := range models {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		versions := models[n]
		for vi, m := range versions {
			info := ModelInfo{
				Name:    n,
				Version: vi + 1,
				Latest:  vi == len(versions)-1,
				Events:  make([]string, len(m.Events)),
			}
			for i, id := range m.Events {
				info.Events[i] = pmu.Lookup(id).Name
			}
			if m.Fit != nil {
				info.R2 = m.Fit.R2
				info.Estimator = m.Fit.Estimator.String()
				info.TrainN = m.Fit.N
			}
			out = append(out, info)
		}
	}
	return out
}

// LoadFile reads a persisted model document (core.ReadJSON) and
// registers it under the file's base name without extension.
func (r *Registry) LoadFile(path string) (name string, version int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return "", 0, fmt.Errorf("serve: %w", err)
	}
	defer f.Close()
	m, err := core.ReadJSON(f)
	if err != nil {
		return "", 0, fmt.Errorf("serve: loading %s: %w", path, err)
	}
	name = strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	version, err = r.Add(name, m)
	return name, version, err
}

// ModelRef is a fully resolved registry entry: the canonical name,
// the concrete version the lookup landed on, and the model itself.
// The serving layer keys per-model-version quality aggregation on
// Key(), so a session pinned to name@2 and one following "latest"
// that resolves to the same version share one quality stream.
type ModelRef struct {
	Name    string
	Version int
	Model   *core.Model
}

// Key renders the canonical "name@version" registry key.
func (r ModelRef) Key() string { return r.Name + "@" + strconv.Itoa(r.Version) }

// Resolve resolves key — "name" for the latest version or "name@N"
// for a pinned one — to its name, concrete version and model. The
// empty key resolves only when exactly one model name is registered
// (the unambiguous default). It reads one atomic snapshot and
// allocates nothing on success, so per-request (and EstimateSample's
// per-sample) resolution is contention-free.
func (r *Registry) Resolve(key string) (ModelRef, error) {
	snap := r.snap.Load()
	name, version := key, 0
	if i := strings.IndexByte(key, '@'); i >= 0 {
		name = key[:i]
		v, err := strconv.Atoi(key[i+1:])
		if err != nil || v <= 0 {
			return ModelRef{}, fmt.Errorf("serve: bad model version in %q", key)
		}
		version = v
	}
	if name == "" {
		if snap.soleName == "" {
			return ModelRef{}, fmt.Errorf("serve: model parameter required (%d models registered)", len(snap.models))
		}
		name = snap.soleName
	}
	versions, ok := snap.models[name]
	if !ok {
		return ModelRef{}, fmt.Errorf("serve: unknown model %q", name)
	}
	if version == 0 {
		version = len(versions)
	} else if version > len(versions) {
		return ModelRef{}, fmt.Errorf("serve: model %q has no version %d (latest %d)", name, version, len(versions))
	}
	return ModelRef{Name: name, Version: version, Model: versions[version-1]}, nil
}

// Count returns the number of registered model names — the shallow
// readiness signal (a server with zero models can serve nothing).
func (r *Registry) Count() int {
	return len(r.snap.Load().models)
}

// List reports every registered model version, sorted by name then
// version. The returned slice is the snapshot's precomputed listing,
// shared between callers — treat it as read-only.
func (r *Registry) List() []ModelInfo {
	return r.snap.Load().infos
}
