// Package flashcoop is a from-scratch reproduction of "FlashCoop: A
// Locality-Aware Cooperative Buffer Management for SSD-Based Storage
// Cluster" (Wei, Gong, Pathak, Tay — ICPP 2010).
//
// FlashCoop pairs storage servers so each buffers its writes in local RAM
// and mirrors them into the partner's RAM over a fast network, instead of
// writing synchronously to its SSD. A Locality-Aware Replacement (LAR)
// policy later evicts whole logical blocks and flushes them sequentially,
// turning a stream of small random writes — poison for NAND flash — into
// large sequential writes, which improves latency, cuts garbage-collection
// erases, and extends SSD lifetime.
//
// The package exposes two operating modes:
//
//   - Simulation (NewNode / NewPair / Replay): deterministic virtual-time
//     nodes over a built-in SSD simulator (page-level, BAST, and FAST
//     FTLs over a NAND timing model), used to regenerate every table and
//     figure of the paper. See cmd/benchrunner.
//
//   - Live (NewLiveNode): the same protocol over real TCP with an actual
//     data plane, heartbeat failure detection, and crash recovery from
//     the partner's remote buffer. See examples/cluster.
//
// Quick start (simulation):
//
//	a, b, err := flashcoop.NewPair(
//		flashcoop.DefaultConfig("a", flashcoop.PolicyLAR),
//		flashcoop.DefaultConfig("b", flashcoop.PolicyLAR),
//	)
//	_ = b // partner hosts a's remote buffer
//	done, err := a.Access(flashcoop.Request{Op: flashcoop.OpWrite, LPN: 0, Pages: 8})
//
// See examples/quickstart for a complete program.
package flashcoop

import (
	"flashcoop/internal/buffer"
	"flashcoop/internal/cluster"
	"flashcoop/internal/core"
	"flashcoop/internal/flash"
	"flashcoop/internal/ftl"
	"flashcoop/internal/sim"
	"flashcoop/internal/ssd"
	"flashcoop/internal/trace"
	"flashcoop/internal/workload"
)

// VTime is a point on the simulation's virtual time line (nanoseconds since
// the simulation epoch). Request.Arrival and all returned completion times
// use it.
type VTime = sim.VTime

// Common virtual-time units.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Replacement policies for Config.Policy.
const (
	PolicyLAR      = buffer.PolicyLAR     // the paper's Locality-Aware Replacement
	PolicyLRU      = buffer.PolicyLRU     // page-granular Least Recently Used
	PolicyLFU      = buffer.PolicyLFU     // page-granular Least Frequently Used
	PolicyBPLRU    = buffer.PolicyBPLRU   // Block Padding LRU (extension)
	PolicyFAB      = buffer.PolicyFAB     // Flash-Aware Buffer (extension)
	PolicyLBCLOCK  = buffer.PolicyLBCLOCK // Large Block CLOCK (extension)
	PolicyBaseline = core.PolicyBaseline  // no buffer: synchronous SSD writes
)

// Request directions.
const (
	OpRead  = trace.Read
	OpWrite = trace.Write
)

// Core simulation types. These are aliases of the implementation types, so
// the full method sets documented in the internal packages apply.
type (
	// Config parameterizes a simulated FlashCoop node.
	Config = core.Config
	// Node is a simulated FlashCoop storage server.
	Node = core.Node
	// NodeStats aggregates a node's counters.
	NodeStats = core.NodeStats
	// NetworkModel is the cooperative link's latency/bandwidth model.
	NetworkModel = core.NetworkModel
	// WorkloadInfo is the dynamic-allocation exchange record.
	WorkloadInfo = core.WorkloadInfo
	// AllocParams are Equation 1's α, β, γ factors.
	AllocParams = core.AllocParams
	// ReplayOptions tune a trace replay.
	ReplayOptions = core.ReplayOptions
	// ReplayStats is the outcome of a trace replay.
	ReplayStats = core.ReplayStats
	// Request is one I/O request.
	Request = trace.Request
	// TraceStats summarizes a request stream (Table I columns).
	TraceStats = trace.Stats
	// SSDConfig selects and parameterizes a node's simulated SSD.
	SSDConfig = ssd.Config
	// FTLConfig carries flash geometry and FTL tuning.
	FTLConfig = ftl.Config
	// FlashParams is the NAND geometry and timing (Table II).
	FlashParams = flash.Params
	// LAROptions expose LAR's design choices for ablation.
	LAROptions = buffer.LAROptions
	// Profile describes a synthetic workload generator.
	Profile = workload.Profile
)

// Live (TCP) deployment types.
type (
	// LiveConfig parameterizes a live TCP node.
	LiveConfig = cluster.LiveConfig
	// LiveNode is a FlashCoop storage server over real TCP.
	LiveNode = cluster.LiveNode
	// LiveStats counts live-node activity.
	LiveStats = cluster.LiveStats
	// StreamStats breaks flash wear down by eviction temperature stream
	// (see LiveNode.StreamStats).
	StreamStats = cluster.StreamStats
	// LatencyStats summarizes a live node's latency percentiles (ms).
	LatencyStats = cluster.LatencyStats
	// PeerState is a live node's partner lifecycle state.
	PeerState = cluster.PeerState
)

// Peer lifecycle states (see LiveNode.PeerLifecycle): cooperative
// buffering is on in StateHealthy (and pre-failover StateSuspect); a node
// that failed over walks Probing→Resyncing back to Healthy, re-replicating
// the writes it persisted alone before backups resume.
const (
	StateHealthy   = cluster.StateHealthy
	StateSuspect   = cluster.StateSuspect
	StateDegraded  = cluster.StateDegraded
	StateProbing   = cluster.StateProbing
	StateResyncing = cluster.StateResyncing
)

// ErrOverloaded is returned by LiveNode.Write when the bounded admission
// queue (or the forward pipeline) stays saturated past the node's
// CallTimeout; the write was shed, not acknowledged.
var ErrOverloaded = cluster.ErrOverloaded

// ErrSyncPoisoned is returned by LiveNode.Write (and the persistence
// paths) once an fsync of the node's page store has failed: the kernel
// may already have dropped the dirty pages, so retrying the fsync would
// report success without durability. The section stays poisoned until
// the process restarts and recovers from its ring replicas; the node
// degrades instead of acking writes it cannot persist.
var ErrSyncPoisoned = cluster.ErrSyncPoisoned

// NewNode constructs a stand-alone simulated node; attach a partner with
// Node.Attach or use NewPair.
func NewNode(cfg Config) (*Node, error) { return core.NewNode(cfg) }

// NewPair constructs two simulated nodes wired as cooperative partners.
func NewPair(cfgA, cfgB Config) (*Node, *Node, error) { return core.NewPair(cfgA, cfgB) }

// Replay drives a request stream through a node and collects the metrics
// the paper's figures report.
func Replay(n *Node, reqs []Request, opts ReplayOptions) (ReplayStats, error) {
	return core.Replay(n, reqs, opts)
}

// NewLiveNode constructs a live TCP node (see package cluster).
func NewLiveNode(cfg LiveConfig) (*LiveNode, error) { return cluster.NewLiveNode(cfg) }

// NewLiveRing constructs N live TCP nodes wired into one consistent-hash
// cooperative ring at epoch 1: each node's dirty pages are backed up on
// the ring successors of their erase block, `replication` distinct
// members deep. The nodes are returned started but not connected — call
// ConnectPeer (and StartHeartbeat) on each, as with a pair. See package
// cluster (ring.go, membership.go).
func NewLiveRing(cfgs []LiveConfig, replication int) ([]*LiveNode, error) {
	return cluster.NewLiveRing(cfgs, replication)
}

// TableIIFlash returns the paper's Table II NAND configuration (4KB pages,
// 256KB blocks, 4GB die, 25µs/200µs/1.5ms/100µs timings, 100K cycles).
func TableIIFlash() FlashParams { return flash.TableII() }

// DefaultSSD returns a Table II-timed SSD scaled to the given number of
// erase blocks (64 pages each), using the named FTL scheme.
func DefaultSSD(scheme string, blocks int) SSDConfig {
	p := flash.TableII()
	p.BlocksPerPlane = blocks / p.PlanesPerDie
	if p.BlocksPerPlane < 1 {
		p.BlocksPerPlane = 1
		p.PlanesPerDie = blocks
		if p.PlanesPerDie < 1 {
			p.PlanesPerDie = 1
		}
	}
	return SSDConfig{Scheme: scheme, FTL: FTLConfig{Flash: p}}
}

// DefaultConfig returns a ready-to-use simulated node configuration: a
// 512MB-class BAST SSD, an 8192-page (32MB) local buffer, a matching
// remote buffer, and the paper's network and allocation defaults.
func DefaultConfig(name, policy string) Config {
	return Config{
		Name:        name,
		Policy:      policy,
		BufferPages: 8192,
		RemotePages: 8192,
		SSD:         DefaultSSD("bast", 2048),
	}
}

// Fin1 returns the write-dominant financial workload profile (Table I).
func Fin1(requests int, seed int64) Profile { return workload.Fin1(requests, seed) }

// Fin2 returns the read-dominant financial workload profile (Table I).
func Fin2(requests int, seed int64) Profile { return workload.Fin2(requests, seed) }

// Mix returns the synthetic 50/50 mixed workload profile (Table I).
func Mix(requests int, seed int64) Profile { return workload.Mix(requests, seed) }

// WebSearch returns a read-dominant profile modeled on the SPC WebSearch
// traces (extension).
func WebSearch(requests int, seed int64) Profile { return workload.WebSearch(requests, seed) }

// ComputeTraceStats derives Table I statistics from a request stream.
func ComputeTraceStats(reqs []Request) TraceStats { return trace.ComputeStats(reqs) }
