package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
)

// provenance identifies what produced a result: the source revision, the
// toolchain, the machine and the run's parameters.
func provenance(o opts) map[string]any {
	return map[string]any{
		"commit":     o.rev,
		"go_version": runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu_model":  cpuModel(),
		"seed":       o.seed,
		"seconds":    o.dur.Seconds(),
		"traced":     o.traced,
		"clients":    clients,
	}
}

// sourceRevision returns a SHA-256 over the Go sources and module files
// under root: it names exactly the code that was built, committed or not,
// and needs no git metadata (the benchmark usually runs from an exported
// tree).
func sourceRevision(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are simply not hashed
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		h.Write([]byte(filepath.ToSlash(f)))
		h.Write([]byte{0})
		h.Write(b)
		h.Write([]byte{0})
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// peakRSSMB returns the process's resident-set high-water mark (VmHWM) in
// MiB. Where /proc is unavailable it falls back to the Go runtime's total
// mapped memory, an upper bound.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// goSnap is a snapshot of the Go runtime's cumulative allocation and CPU
// counters.
type goSnap struct {
	allocs, allocBytes uint64
	gcCPU, totalCPU    float64
}

var goMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readGo() goSnap {
	s := make([]metrics.Sample, len(goMetricNames))
	for i, n := range goMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return goSnap{
		allocs:     uint64(val(0)),
		allocBytes: uint64(val(1)),
		gcCPU:      val(2),
		totalCPU:   val(3),
	}
}

// goLayers records the go.* metrics for ops operations between a and b.
func goLayers(r *report, a, b goSnap, ops int) {
	r.layer("go.allocs_per_op", ratio(float64(b.allocs-a.allocs), float64(ops)), ops)
	r.layer("go.alloc_kb_per_op", ratio(float64(b.allocBytes-a.allocBytes)/1024, float64(ops)), ops)
	r.layer("go.gc_cpu_fraction", ratio(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU), ops)
}
