// chimera-smoke is the cluster smoke driver scripts/check.sh runs before a
// PR: it spawns a real 3-node chimera-served cluster (separate processes,
// separate disk stores, talking over loopback HTTP), proves the sharded
// store works end to end, then kills a node and proves the survivors keep
// answering correctly.
//
// The script asserts the full cluster story on live processes:
//
//  1. a cold rewrite on a non-owner node is offered to the key's shard
//     owner (observed through the peer protocol itself),
//  2. the same request on ANOTHER non-owner is a peer hit — one rewrite
//     executed cluster-wide, verified by summing /stats across nodes,
//  3. after the owner process is killed, fresh requests on the survivors
//     still return 200 with byte-identical results from both nodes — a
//     dead peer degrades to extra rewrites, never to errors.
//
// Usage (from the repo root):
//
//	go run ./cmd/chimera-smoke            # builds chimera-served itself
//	chimera-smoke -served ./chimera-served -peer-timeout 500ms
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"github.com/eurosys26p57/chimera/internal/cluster"
	"github.com/eurosys26p57/chimera/internal/rewriters"
	"github.com/eurosys26p57/chimera/internal/workload"
)

// rewriteRequest / rewriteResult mirror the service's public JSON wire
// format (internal/service.Handler); the smoke speaks to the daemon exactly
// like an external client would.
type rewriteRequest struct {
	Method string `json:"method"`
	Target string `json:"target"`
	Image  []byte `json:"image"`
}

type rewriteResult struct {
	Key            string `json:"key"`
	ImageBytes     []byte `json:"image"`
	CacheHit       bool   `json:"cache_hit"`
	Tier           string `json:"tier"`
	PeerHit        bool   `json:"peer_hit"`
	Degraded       bool   `json:"degraded"`
	DegradedReason string `json:"degraded_reason"`
}

type nodeStats struct {
	Stages map[string]struct {
		Count uint64 `json:"count"`
	} `json:"stages"`
	Cluster *struct {
		PeerHits   uint64 `json:"peer_hits"`
		PeerErrors uint64 `json:"peer_errors"`
	} `json:"cluster"`
}

type node struct {
	url string
	cmd *exec.Cmd
}

var procs []*exec.Cmd

func fatal(format string, args ...any) {
	for _, c := range procs {
		if c.Process != nil {
			c.Process.Kill()
			c.Wait()
		}
	}
	fmt.Fprintf(os.Stderr, "chimera-smoke: FAIL: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	served := flag.String("served", "", "chimera-served binary (empty = go build it into a temp dir)")
	peerTimeout := flag.Duration("peer-timeout", 500*time.Millisecond, "per-peer-call timeout passed to the nodes")
	timeout := flag.Duration("timeout", 90*time.Second, "overall smoke deadline")
	flag.Parse()
	deadline := time.Now().Add(*timeout)

	root, err := os.MkdirTemp("", "chimera-smoke-")
	if err != nil {
		fatal("%v", err)
	}
	defer os.RemoveAll(root)

	bin := *served
	if bin == "" {
		bin = filepath.Join(root, "chimera-served")
		build := exec.Command("go", "build", "-o", bin, "./cmd/chimera-served")
		build.Stderr = os.Stderr
		if err := build.Run(); err != nil {
			fatal("building chimera-served: %v", err)
		}
	}

	// Reserve three ports, then release them for the daemons to bind. (The
	// gap is racy in principle; on a loopback smoke box it is fine.)
	const n = 3
	addrs := make([]string, n)
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fatal("%v", err)
		}
		addrs[i] = l.Addr().String()
		urls[i] = "http://" + addrs[i]
		l.Close()
	}

	nodes := make([]*node, n)
	for i := 0; i < n; i++ {
		dir := filepath.Join(root, fmt.Sprintf("store%d", i))
		cmd := exec.Command(bin,
			"-addr", addrs[i],
			"-workers", "2",
			"-store-dir", dir,
			"-self", urls[i],
			"-peers", urls[(i+1)%n]+","+urls[(i+2)%n],
			"-peer-timeout", peerTimeout.String(),
		)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			fatal("starting node %d: %v", i, err)
		}
		procs = append(procs, cmd)
		nodes[i] = &node{url: urls[i], cmd: cmd}
	}
	for i, nd := range nodes {
		waitHealthy(i, nd.url, deadline)
	}
	fmt.Fprintf(os.Stderr, "chimera-smoke: 3 nodes up: %v\n", urls)

	img, err := workload.BuildSpec(workload.SpecParams{
		Name: "smoke", CodeKB: 32, Funcs: 5, VecFuncs: 3, BodyInsts: 20,
		IndirectEvery: 3, ErrEntryEvery: 10, PressureFuncs: 1,
		HardPressureFuncs: 1, Rounds: 3, Seed: 42,
	}, true)
	if err != nil {
		fatal("building workload: %v", err)
	}
	var wireBuf bytes.Buffer
	if _, err := img.WriteTo(&wireBuf); err != nil {
		fatal("%v", err)
	}
	wire := wireBuf.Bytes()

	// Phase 1: cold rewrite, offer, peer hit — one rewrite cluster-wide.
	ring := cluster.NewRing(urls, cluster.DefaultVNodes)
	cold := post(0, urls[0], rewriteRequest{Method: "chbp", Target: "rv64gc", Image: wire})
	if cold.CacheHit || cold.PeerHit || cold.Degraded {
		fatal("cold rewrite on node 0: hit=%t peer=%t degraded=%t", cold.CacheHit, cold.PeerHit, cold.Degraded)
	}
	owner := indexOf(urls, ring.Owner(cold.Key))
	if owner < 0 {
		fatal("ring owner %q is not a member of %v", ring.Owner(cold.Key), urls)
	}
	fmt.Fprintf(os.Stderr, "chimera-smoke: key owner is node %d\n", owner)
	if owner != 0 {
		// The async offer must land at the owner; observe it through the
		// peer protocol, exactly as another node would.
		waitOffered(urls[owner], cold.Key, deadline)
	}
	// Every OTHER node now answers without rewriting: the owner from its
	// local store, non-owners via a peer hit against the owner.
	for i := 1; i < n; i++ {
		res := post(i, urls[i], rewriteRequest{Method: "chbp", Target: "rv64gc", Image: wire})
		if !bytes.Equal(res.ImageBytes, cold.ImageBytes) {
			fatal("node %d returned different bytes than the cold rewrite", i)
		}
		if i == owner && !res.CacheHit {
			fatal("owner node %d missed its own shard (hit=%t peer=%t)", i, res.CacheHit, res.PeerHit)
		}
		if i != owner && !res.CacheHit && !res.PeerHit {
			fatal("node %d neither hit locally nor via the owner", i)
		}
	}
	var rewrites uint64
	for i := 0; i < n; i++ {
		rewrites += stats(urls[i]).Stages["rewrite"].Count
	}
	if rewrites != 1 {
		fatal("cluster executed %d rewrites for one key, want exactly 1", rewrites)
	}
	fmt.Fprintf(os.Stderr, "chimera-smoke: cross-fill ok (1 rewrite cluster-wide)\n")

	// Phase 2: kill the shard owner. The survivors must keep answering —
	// fresh keys owned by the corpse cost a local rewrite, never an error —
	// and stay deterministic (both survivors produce identical bytes).
	nodes[owner].cmd.Process.Kill()
	nodes[owner].cmd.Wait()
	fmt.Fprintf(os.Stderr, "chimera-smoke: killed node %d (the owner)\n", owner)
	var survivors []int
	for i := 0; i < n; i++ {
		if i != owner {
			survivors = append(survivors, i)
		}
	}
	for _, m := range rewriters.Methods() {
		if m == "chbp" {
			continue // phase 1's key, already stored: not a fresh rewrite
		}
		req := rewriteRequest{Method: m, Target: "rv64gc", Image: wire}
		a := post(survivors[0], urls[survivors[0]], req)
		b := post(survivors[1], urls[survivors[1]], req)
		if a.Degraded || b.Degraded {
			fatal("%s degraded after node kill: %q / %q", m, a.DegradedReason, b.DegradedReason)
		}
		if !bytes.Equal(a.ImageBytes, b.ImageBytes) {
			fatal("%s: survivors disagree on the rewritten bytes", m)
		}
		deadOwner := indexOf(urls, ring.Owner(a.Key)) == owner
		fmt.Fprintf(os.Stderr, "chimera-smoke: %s served by survivors (owner dead: %t)\n", m, deadOwner)
	}
	for _, i := range survivors {
		resp, err := http.Get(urls[i] + "/healthz")
		if err != nil || resp.StatusCode != http.StatusOK {
			fatal("survivor %d unhealthy after node kill", i)
		}
		resp.Body.Close()
	}

	for _, i := range survivors {
		nodes[i].cmd.Process.Kill()
		nodes[i].cmd.Wait()
	}
	fmt.Fprintln(os.Stderr, "chimera-smoke: ok")
}

func post(node int, base string, req rewriteRequest) *rewriteResult {
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+"/rewrite", "application/json", bytes.NewReader(body))
	if err != nil {
		fatal("node %d: %v", node, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fatal("node %d: /rewrite status %d (rewrites must always be answered)", node, resp.StatusCode)
	}
	var res rewriteResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		fatal("node %d: decoding response: %v", node, err)
	}
	return &res
}

func stats(base string) nodeStats {
	resp, err := http.Get(base + "/stats")
	if err != nil {
		fatal("GET /stats: %v", err)
	}
	defer resp.Body.Close()
	var st nodeStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		fatal("decoding /stats: %v", err)
	}
	return st
}

func waitHealthy(i int, base string, deadline time.Time) {
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			fatal("node %d never became healthy at %s", i, base)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// waitOffered polls the owner's peer-protocol endpoint until the offered
// entry is present (the offer is asynchronous).
func waitOffered(ownerURL, key string, deadline time.Time) {
	target := ownerURL + cluster.PeerPathPrefix + cluster.EntryID(key)
	for {
		req, _ := http.NewRequest(http.MethodGet, target, nil)
		req.Header.Set(cluster.KeyHeader, key)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			fatal("offer never reached the shard owner at %s", ownerURL)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func indexOf(urls []string, u string) int {
	for i, v := range urls {
		if v == u {
			return i
		}
	}
	return -1
}
