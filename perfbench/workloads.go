package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"distcfd"
	"distcfd/internal/cfd"
	"distcfd/internal/colstore"
	"distcfd/internal/core"
	"distcfd/internal/partition"
	"distcfd/internal/relation"
	"distcfd/internal/remote"
	"distcfd/internal/workload"
)

// spec describes one workload. Both run the same instance and rules
// (disjointRules) with the same clients; they differ only in where the
// sites keep and serve their fragments.
type spec struct {
	name   string
	tuples int
	// remote puts every fragment in a colstore directory and serves its
	// site over loopback TCP; otherwise sites hold fragments in memory.
	remote bool
}

const (
	// numSites is every workload's cluster size.
	numSites = 4
	// clients is every workload's number of closed-loop clients. On a
	// 2-CPU host one client already reaches 84% (detect-mem) and 91%
	// (detect-rpc-store) of two clients' throughput, because Detect
	// runs its sites in parallel. A second client's ops overlap the
	// first's in a phase that changes from run to run: in alternating
	// runs of one seed, two clients' p50 varied 1.6× (detect-mem) and
	// 1.9× (detect-rpc-store) as much from run to run as one client's.
	clients = 1
)

var specs = []spec{
	// The coordinator path — deposit merge, kernel fold, result sort —
	// plus GC, with no wire and no storage.
	{name: "detect-mem", tuples: 40_000},
	// detect-mem's instance, rules and clients on colstore sites served
	// over loopback TCP: the same violations, so every extra millisecond
	// belongs to remote or colstore.
	{name: "detect-rpc-store", tuples: 40_000, remote: true},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// disjointRules are six CFDs with pairwise unrelated LHSs, so every
// rule is its own cluster.
func disjointRules() []*cfd.CFD {
	return []*cfd.CFD{
		workload.CustPatternCFD(128),
		cfd.MustParse(`i1: [CC, title] -> [price]`),
		cfd.MustParse(`i2: [name] -> [phn]`),
		cfd.MustParse(`i3: [AC, phn] -> [street]`),
		cfd.MustParse(`i4: [street, city] -> [zip]`),
		cfd.MustParse(`i5: [qty, price] -> [title]`),
	}
}

// instance is a workload's generated input.
type instance struct {
	data  *relation.Relation
	rules []*cfd.CFD
	ref   reference
	seed  int64
}

func generate(sp spec, seed int64) (*instance, error) {
	data := workload.Cust(workload.CustConfig{N: sp.tuples, Seed: seed, ErrRate: 0.01})
	rules := disjointRules()
	// The reference runs on a copy, so the column encodings it builds do
	// not stay live (and cost GC time) through the timed loop.
	ref, err := referenceOf(data.Clone(), rules)
	if err != nil {
		return nil, err
	}
	return &instance{data: data, rules: rules, ref: ref, seed: seed}, nil
}

// fragments partitions the instance afresh, so no deployment inherits
// another's cached column encodings.
func (in *instance) fragments() ([]*relation.Relation, error) {
	h, err := partition.Uniform(in.data, numSites, in.seed)
	if err != nil {
		return nil, err
	}
	return h.Fragments, nil
}

// deployment is one set-up cluster with its compiled detector.
type deployment struct {
	det   *distcfd.Detector
	sites []core.SiteAPI // the sites holding the fragments, unwrapped
	dirs  []string
	lis   []*countingListener

	storeStats colstore.Stats
	openTime   time.Duration
	setupTime  time.Duration
	warm       *distcfd.Result

	stopServers func()
}

func (d *deployment) tcpBytes() int64 {
	var n int64
	for _, l := range d.lis {
		n += l.bytes.Load()
	}
	return n
}

// leaks reports every site that still holds deposit buffers.
func (d *deployment) leaks() error {
	var errs []error
	for i, s := range d.sites {
		if n := s.(interface{ PendingDeposits() int }).PendingDeposits(); n != 0 {
			errs = append(errs, fmt.Errorf("site %d holds %d pending deposit buffers", i, n))
		}
	}
	return errors.Join(errs...)
}

// close tears the deployment down: remote connections first, so the
// servers finish their handlers before the store sites close under
// them; then the sites and their directories.
func (d *deployment) close() error {
	if d.stopServers != nil {
		d.stopServers()
	}
	var errs []error
	for _, s := range d.sites {
		if c, ok := s.(interface{ Close() error }); ok {
			errs = append(errs, c.Close())
		}
	}
	for _, dir := range d.dirs {
		errs = append(errs, os.RemoveAll(dir))
	}
	return errors.Join(errs...)
}

// deploy builds the cluster for sp over frags, compiles the rules and
// runs the warm-up op. setupTime covers all of it: store write and
// open, serve and dial, Compile and warm-up. With rec non-nil the
// SiteAPI boundary is traced on the driver side and, for remote sites,
// on the server side.
func deploy(ctx context.Context, sp spec, in *instance, frags []*relation.Relation, workDir string, rec *recorder) (dep *deployment, err error) {
	start := time.Now()
	dep = &deployment{}
	defer func() {
		if err != nil {
			dep.close()
			dep = nil
		}
	}()
	schema := in.data.Schema()
	sites := make([]core.SiteAPI, len(frags))
	for i, f := range frags {
		if !sp.remote {
			sites[i] = core.NewSite(i, f, relation.True())
			dep.sites = append(dep.sites, sites[i])
			continue
		}
		dir := filepath.Join(workDir, fmt.Sprintf("site%d", i))
		st, err := colstore.WriteRelationDir(dir, f)
		dep.dirs = append(dep.dirs, dir)
		if err != nil {
			return nil, fmt.Errorf("writing store %d: %w", i, err)
		}
		dep.storeStats.Rows += st.Rows
		dep.storeStats.BytesOnDisk += st.BytesOnDisk
		dep.storeStats.RawBytes += st.RawBytes
		t0 := time.Now()
		s, err := core.OpenStoreSite(i, dir, relation.True())
		dep.openTime += time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("opening store %d: %w", i, err)
		}
		sites[i] = s
		dep.sites = append(dep.sites, s)
	}
	if sp.remote {
		if sites, schema, err = dep.serve(ctx, sites, schema, rec); err != nil {
			return nil, err
		}
	}
	cl, err := core.NewCluster(schema, sites)
	if err != nil {
		return nil, err
	}
	if rec != nil {
		cl.WrapSites(func(_ int, s core.SiteAPI) core.SiteAPI { return newTracedSite(s, rec, sideDriver) })
	}
	if dep.det, err = distcfd.Compile(cl, in.rules, distcfd.WithAlgorithm(distcfd.PatDetectRT)); err != nil {
		return nil, err
	}
	if dep.warm, err = dep.det.Detect(ctx); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	dep.setupTime = time.Since(start)
	return dep, nil
}

// serve puts every site behind a loopback TCP server and returns the
// dialed remote proxies in their place.
func (dep *deployment) serve(ctx context.Context, sites []core.SiteAPI, schema *relation.Schema, rec *recorder) ([]core.SiteAPI, *relation.Schema, error) {
	srvCtx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	var proxies []core.SiteAPI
	dep.stopServers = func() {
		for _, p := range proxies {
			p.(interface{ Close() error }).Close()
		}
		cancel()
		wg.Wait()
		for _, l := range dep.lis {
			l.conns.Wait()
		}
	}
	addrs := make([]string, len(sites))
	for i, s := range sites {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, nil, err
		}
		cl := &countingListener{Listener: lis}
		dep.lis = append(dep.lis, cl)
		addrs[i] = lis.Addr().String()
		api := s
		if rec != nil {
			api = newTracedSite(s, rec, sideServer)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := remote.ServeAPIContext(srvCtx, cl, api, schema); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: serving site %d: %v\n", i, err)
			}
		}()
	}
	proxies, rschema, err := remote.Dial(addrs)
	if err != nil {
		return nil, nil, fmt.Errorf("dialing sites: %w", err)
	}
	return proxies, rschema, nil
}
