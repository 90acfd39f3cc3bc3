package core

import (
	"fmt"

	"flashcoop/internal/sim"
	"flashcoop/internal/trace"
)

// DualReplayOptions tune a two-node cooperative replay.
type DualReplayOptions struct {
	// RebalanceEvery runs a dynamic-allocation round on BOTH nodes every
	// k steps (0 = none).
	RebalanceEvery int
}

// DualReplayStats is the outcome of replaying two workloads concurrently
// on a cooperative pair — the paper's "dynamic testing" setup where both
// servers serve their own requests while hosting each other's backups.
type DualReplayStats struct {
	Local  ReplayStats
	Remote ReplayStats
	// LocalThetas / RemoteThetas record θ from each rebalance round.
	LocalThetas  []float64
	RemoteThetas []float64
}

// DualReplay interleaves two request streams in arrival-time order, one on
// each node of a cooperative pair, so remote-buffer pressure and dynamic
// allocation reflect genuine two-sided load. Both nodes must be attached
// to each other.
func DualReplay(local, remote *Node, localReqs, remoteReqs []trace.Request, opts DualReplayOptions) (DualReplayStats, error) {
	var ds DualReplayStats
	if local.Peer() != remote || remote.Peer() != local {
		return ds, fmt.Errorf("core: DualReplay nodes are not attached to each other")
	}
	localErase0 := local.Device().Erases()
	remoteErase0 := remote.Device().Erases()

	li, ri := 0, 0
	step := 0
	var lastArrival sim.VTime
	for li < len(localReqs) || ri < len(remoteReqs) {
		// Merge by arrival time.
		takeLocal := ri >= len(remoteReqs) ||
			(li < len(localReqs) && localReqs[li].Arrival <= remoteReqs[ri].Arrival)
		var req trace.Request
		var n *Node
		var rs *ReplayStats
		if takeLocal {
			req, n, rs = localReqs[li], local, &ds.Local
			li++
		} else {
			req, n, rs = remoteReqs[ri], remote, &ds.Remote
			ri++
		}
		done, err := n.Access(req)
		if err != nil {
			return ds, fmt.Errorf("dual replay %s request: %w", n.Name(), err)
		}
		resp := float64(done-req.Arrival) / float64(sim.Millisecond)
		rs.Resp.Add(resp)
		rs.RespHist.Add(resp)
		if req.Op == trace.Write {
			rs.WriteResp.Add(resp)
		} else {
			rs.ReadResp.Add(resp)
		}
		rs.Requests++
		rs.EndTime = sim.Max(rs.EndTime, done)
		lastArrival = req.Arrival

		step++
		if opts.RebalanceEvery > 0 && step%opts.RebalanceEvery == 0 {
			// LocalInfo resets the node's workload window, so each side
			// is read once per round and the same snapshot feeds both
			// nodes' Equation 1.
			li, ri := local.LocalInfo(lastArrival), remote.LocalInfo(lastArrival)
			lt, err := local.Rebalance(lastArrival, li, ri)
			if err != nil {
				return ds, err
			}
			rt, err := remote.Rebalance(lastArrival, ri, li)
			if err != nil {
				return ds, err
			}
			ds.LocalThetas = append(ds.LocalThetas, lt)
			ds.RemoteThetas = append(ds.RemoteThetas, rt)
		}
	}

	ds.Local.Erases = local.Device().Erases() - localErase0
	ds.Remote.Erases = remote.Device().Erases() - remoteErase0
	ds.Local.WriteLengths.Merge(&local.Device().Stats().WriteLengths)
	ds.Remote.WriteLengths.Merge(&remote.Device().Stats().WriteLengths)
	if local.Buffer() != nil {
		ds.Local.HitRatio = local.Buffer().Stats().HitRatio()
	}
	if remote.Buffer() != nil {
		ds.Remote.HitRatio = remote.Buffer().Stats().HitRatio()
	}
	return ds, nil
}
