package main

import (
	"net"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
)

// Outside-in counters: they observe the program from its edges (the
// TCP listener, the kernel, the Go runtime), so
// they need no spans and run identically in traced and untraced runs.

// countingListener counts the bytes every accepted connection reads and
// writes, and lets the owner wait until the server has closed each
// connection it accepted.
type countingListener struct {
	net.Listener
	bytes atomic.Int64
	conns sync.WaitGroup
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.conns.Add(1)
	return &countingConn{Conn: c, l: l}, nil
}

type countingConn struct {
	net.Conn
	l    *countingListener
	once sync.Once
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.bytes.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.l.bytes.Add(int64(n))
	return n, err
}

func (c *countingConn) Close() error {
	err := c.Conn.Close()
	c.once.Do(c.l.conns.Done)
	return err
}

// pageFaults returns the process's minor and major page-fault counts.
func pageFaults() (minor, major int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return ru.Minflt, ru.Majflt
}

// runtime/metrics names sampled around the timed loop.
const (
	mGCCycles   = "/gc/cycles/total:gc-cycles"
	mAllocBytes = "/gc/heap/allocs:bytes"
	mAllocObjs  = "/gc/heap/allocs:objects"
	mGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU   = "/cpu/classes/total:cpu-seconds"
	mIdleCPU    = "/cpu/classes/idle:cpu-seconds"
	mHeapLive   = "/gc/heap/live:bytes"
)

var runtimeMetricNames = []string{mGCCycles, mAllocBytes, mAllocObjs, mGCCPU, mTotalCPU, mIdleCPU, mHeapLive}

// readRuntime reads runtimeMetricNames.
func readRuntime() map[string]float64 {
	samples := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	out := make(map[string]float64, len(samples))
	for _, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[s.Name] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[s.Name] = s.Value.Float64()
		}
	}
	return out
}

// Names of the cumulative readings besides runtimeMetricNames.
const (
	cMinor = "minor_faults"
	cMajor = "major_faults"
	cTCP   = "tcp_bytes"
)

// readCounters takes one reading of every outside-in counter.
func readCounters(dep *deployment) map[string]float64 {
	out := readRuntime()
	minor, major := pageFaults()
	out[cMinor], out[cMajor] = float64(minor), float64(major)
	out[cTCP] = float64(dep.tcpBytes())
	return out
}

// counterAcc accumulates counter deltas over the measured stretches of
// a timed loop; the stretches of the other lane are excluded.
type counterAcc struct {
	dep      *deployment
	start    map[string]float64
	sum      map[string]float64
	heapLive float64 // live heap at the last pause
}

func newCounterAcc(dep *deployment) *counterAcc {
	return &counterAcc{dep: dep, sum: make(map[string]float64)}
}

func (a *counterAcc) resume() { a.start = readCounters(a.dep) }

func (a *counterAcc) pause() {
	end := readCounters(a.dep)
	for k, v := range end {
		a.sum[k] += v - a.start[k]
	}
	a.heapLive = end[mHeapLive]
}

// figures reduces the accumulated deltas over ops timed ops.
func (a *counterAcc) figures(ops int) map[string]metric {
	n := float64(max(ops, 1))
	gcShare := 0.0
	if busy := a.sum[mTotalCPU] - a.sum[mIdleCPU]; busy > 0 {
		gcShare = a.sum[mGCCPU] / busy
	}
	return map[string]metric{
		"runtime.alloc_bytes_per_op":   {a.sum[mAllocBytes] / n, "bytes/op"},
		"runtime.alloc_objects_per_op": {a.sum[mAllocObjs] / n, "objects/op"},
		"runtime.gc_cycles_per_op":     {a.sum[mGCCycles] / n, "cycles/op"},
		"runtime.heap_live_mb":         {a.heapLive / (1 << 20), "MiB"},
		"runtime.gc_cpu_share":         {gcShare, "ratio"},
		"colstore.minor_faults_per_op": {a.sum[cMinor] / n, "faults/op"},
		"colstore.major_faults_per_op": {a.sum[cMajor] / n, "faults/op"},
		"remote.tcp_bytes_per_op":      {a.sum[cTCP] / n, "bytes/op"},
	}
}

// resetPeakRSS resets the kernel's peak-resident-set high-water mark to
// the current RSS (Linux clear_refs); a no-op where unsupported.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort: unsupported kernels keep the lifetime peak
}

// vmHWMBytes returns the process's peak resident set in bytes (Linux
// /proc VmHWM), or 0 where unavailable.
func vmHWMBytes() float64 {
	st, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(st), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) >= 1 {
				if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
					return kb * 1024
				}
			}
		}
	}
	return 0
}

// stamp records the configuration a run's figures belong to.
type stamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	StoreFS    string `json:"store_fs"`
}

func makeStamp(storeDir string) stamp {
	return stamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		StoreFS:    fsType(storeDir),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsTypes names the statfs magic numbers of common Linux filesystems.
var fsTypes = map[int64]string{
	0xEF53:     "ext2/3/4",
	0x01021994: "tmpfs",
	0x794C7630: "overlayfs",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x2FC12FC1: "zfs",
	0x6969:     "nfs",
	0x65735546: "fuse",
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsTypes[int64(st.Type)]; ok {
		return name
	}
	return "0x" + strconv.FormatInt(int64(st.Type), 16)
}
