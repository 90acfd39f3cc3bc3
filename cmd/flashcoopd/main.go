// Command flashcoopd runs a live FlashCoop storage server: it listens for
// its cooperative partner, forwards write backups, exchanges heartbeats,
// and serves a tiny line-oriented client protocol for demos:
//
//	WRITE <lpn> <hex-bytes...>   write one page (payload zero-padded)
//	READ <lpn>                   read one page (prints first 16 bytes hex)
//	STATS                        print node counters
//	HEALTH                       print the peer lifecycle state and counters
//	SCRUB                        verify every on-disk checksum now
//	QUIT                         close the client connection
//
// Usage:
//
//	flashcoopd -listen host1:7001 -client :8001 [-peer host2:7002] [-policy lar]
//	           [-buffer 8192] [-remote 8192] [-recover]
//	           [-datadir DIR -sync -scrub-interval 1h]
//	           [-victim-segments 128 -victim-segment-pages 64 -victim-min-reuse 2]
//	           [-batch 64] [-inflight 4] [-chaos-seed N]
//
// A cooperative pair is a 2-member ring: -peer X is -peers X with this
// node's -listen address added. A larger ring lists every member (this
// node's -listen address is added if absent):
//
//	flashcoopd -listen host1:7001 -client :8001 \
//	           -peers host1:7001,host2:7002,host3:7003 [-replication 1]
//
// Every member must be started with the same list; HEALTH then reports the
// ring epoch and each partner link's lifecycle state. With -peer or -peers,
// -listen must name this node's host: it is the node's member ID, which
// partners dial and file its backups under, so a restarted node recovers
// them (-recover) only when it comes back on the same -listen address.
//
// STATS reports, besides the counters, the write and forward latency
// percentiles (wlat_*/flat_*) and the forward batching factor.
package main

import (
	"bufio"
	"encoding/hex"
	"flag"
	"fmt"
	"log"
	"net"
	"sort"
	"strconv"
	"strings"
	"time"

	"flashcoop"
	"flashcoop/internal/faultnet"
	"flashcoop/internal/stream"
)

func main() {
	var (
		listen   = flag.String("listen", "127.0.0.1:7001", "partner-facing address")
		client   = flag.String("client", "127.0.0.1:8001", "client-facing address")
		peer     = flag.String("peer", "", "partner address: a 2-member ring (empty = degraded)")
		peers    = flag.String("peers", "", "comma-separated ring member list (replaces -peer; own -listen address added if absent)")
		repl     = flag.Int("replication", 1, "ring backup owners per erase block (with -peers)")
		policy   = flag.String("policy", flashcoop.PolicyLAR, "buffer policy: lar, lru, lfu")
		bufPg    = flag.Int("buffer", 8192, "local buffer pages")
		remote   = flag.Int("remote", 8192, "remote buffer pages")
		blocks   = flag.Int("blocks", 2048, "SSD erase blocks")
		scheme   = flag.String("ftl", "bast", "FTL scheme")
		recover  = flag.Bool("recover", false, "recover dirty data from the partner on startup")
		dataDir  = flag.String("datadir", "", "persist flushed pages here (survives restarts)")
		syncW    = flag.Bool("sync", false, "fsync the page store on every persist")
		batch    = flag.Int("batch", 0, "max pages group-committed per forward frame (0 = default)")
		inflight = flag.Int("inflight", 0, "max unacked forward frames on the wire (0 = default)")
		shards   = flag.Int("shards", 0, "buffer lock stripes / concurrent flush streams (0 = default)")
		evictQ   = flag.Int("evict-queue", 0, "per-shard eviction queue depth (0 = default)")
		scrubInt = flag.Duration("scrub-interval", 0, "background on-disk checksum scrub period (0 = off; needs -datadir)")
		victSegs = flag.Int("victim-segments", 0, "flash victim-cache log segments (0 = tier off)")
		victSegP = flag.Int("victim-segment-pages", 0, "pages per victim-cache segment (0 = the device's erase-block size; needs -victim-segments)")
		victMinR = flag.Int64("victim-min-reuse", 0, "popularity floor for direct eviction-path victim admission (0 = default; needs -victim-segments)")
		chaos    = flag.Int64("chaos-seed", 0, "run this node's transport through a seeded fault injector (0 = off); for failure drills, never production")
	)
	flag.Parse()

	// Reject nonsense before it turns into a panic or a silently-default
	// config deep inside the node: every message names the flag, the bad
	// value, and the accepted range.
	if *bufPg <= 0 {
		log.Fatalf("flashcoopd: -buffer %d is invalid: want a positive page count", *bufPg)
	}
	if *remote <= 0 {
		log.Fatalf("flashcoopd: -remote %d is invalid: want a positive page count", *remote)
	}
	if *blocks <= 0 {
		log.Fatalf("flashcoopd: -blocks %d is invalid: want a positive erase-block count", *blocks)
	}
	if *shards < 0 {
		log.Fatalf("flashcoopd: -shards %d is invalid: want 0 (auto-size) or a positive stripe count", *shards)
	}
	if *evictQ < 0 {
		log.Fatalf("flashcoopd: -evict-queue %d is invalid: want 0 (default) or a positive queue depth", *evictQ)
	}
	if *batch < 0 {
		log.Fatalf("flashcoopd: -batch %d is invalid: want 0 (default) or a positive page count", *batch)
	}
	if *inflight < 0 {
		log.Fatalf("flashcoopd: -inflight %d is invalid: want 0 (default) or a positive frame count", *inflight)
	}
	if *scrubInt < 0 {
		log.Fatalf("flashcoopd: -scrub-interval %v is invalid: want 0 (off) or a positive period", *scrubInt)
	}
	if *scrubInt > 0 && *dataDir == "" {
		log.Fatal("flashcoopd: -scrub-interval needs -datadir: a memory-backed node has no on-disk checksums to scrub")
	}
	if *victSegs < 0 || *victSegs == 1 {
		log.Fatalf("flashcoopd: -victim-segments %d is invalid: want 0 (tier off) or at least 2 segments (one open, one stable)", *victSegs)
	}
	if *victSegP < 0 {
		log.Fatalf("flashcoopd: -victim-segment-pages %d is invalid: want 0 (erase-block size) or a positive page count", *victSegP)
	}
	if *victMinR < 0 {
		log.Fatalf("flashcoopd: -victim-min-reuse %d is invalid: want 0 (default) or a positive popularity floor", *victMinR)
	}
	if *victSegs == 0 && (*victSegP > 0 || *victMinR > 0) {
		log.Fatal("flashcoopd: -victim-segment-pages and -victim-min-reuse need -victim-segments: they tune a tier that is off")
	}

	members, err := ringMembers(*listen, *peer, *peers)
	if err != nil {
		log.Fatalf("flashcoopd: %v", err)
	}
	if len(members) > 0 {
		if *repl < 1 || *repl > len(members)-1 {
			log.Fatalf("flashcoopd: -replication %d is out of range for a %d-member ring: want 1..%d backup owners per erase block",
				*repl, len(members), len(members)-1)
		}
	}

	cfg := flashcoop.LiveConfig{
		Name:          *listen,
		ListenAddr:    *listen,
		Peers:         members,
		NodeID:        *listen,
		Replication:   *repl,
		Policy:        *policy,
		BufferPages:   *bufPg,
		RemotePages:   *remote,
		SSD:           flashcoop.DefaultSSD(*scheme, *blocks),
		DataDir:       *dataDir,
		SyncWrites:    *syncW,
		MaxBatchPages: *batch,
		MaxInflight:   *inflight,
		Shards:        *shards,
		EvictQueue:    *evictQ,
		ScrubInterval: *scrubInt,

		VictimSegments:     *victSegs,
		VictimSegmentPages: *victSegP,
		AdmissionMinReuse:  *victMinR,
	}
	if *chaos != 0 {
		// A moderate, framing-preserving schedule: enough latency and
		// connection churn to drill failover and redial handling, with a
		// reproducible schedule per seed.
		nw := faultnet.New(*chaos)
		nw.SetFaults(faultnet.Faults{
			DelayProb: 0.2,
			DelayMax:  2 * time.Millisecond,
			ResetProb: 0.005,
		})
		cfg.Dialer = nw.Dial
		cfg.Listener = nw.Listen
		log.Printf("flashcoopd: CHAOS MODE, transport faults seeded with %d", *chaos)
	}
	node, err := flashcoop.NewLiveNode(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer node.Close()
	log.Printf("flashcoopd: partner port %s, client port %s, policy %s", node.Addr(), *client, *policy)

	if len(members) > 0 {
		if err := node.ConnectPeer(); err != nil {
			log.Printf("flashcoopd: partner not reachable yet: %v", err)
		} else if *recover {
			if err := node.RecoverFromPeer(); err != nil {
				log.Printf("flashcoopd: recovery failed: %v", err)
			} else {
				log.Printf("flashcoopd: recovered dirty data from partner")
			}
		}
		node.StartHeartbeat()
		node.StartRebalance(5 * time.Second)
		log.Printf("flashcoopd: ring of %d members at epoch %d, replication %d",
			len(node.RingMembers()), node.RingEpoch(), *repl)
	}

	ln, err := net.Listen("tcp", *client)
	if err != nil {
		log.Fatal(err)
	}
	defer ln.Close()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go serveClient(node, conn)
	}
}

// ringMembers turns the partner flags into the ring member list: -peers
// is the full list and -peer X the 2-member ring {X, listen}; either way
// the listen address — this node's member ID — is added if absent. It
// returns nil when neither flag is set (a solo node).
func ringMembers(listen, peer, peers string) ([]string, error) {
	if peer != "" && peers != "" {
		return nil, fmt.Errorf("-peer and -peers are mutually exclusive")
	}
	list := peers
	if peer != "" {
		list = peer
	}
	if list == "" {
		return nil, nil
	}
	host, _, err := net.SplitHostPort(listen)
	if err != nil {
		return nil, fmt.Errorf("-listen %q: %v", listen, err)
	}
	if host == "" {
		return nil, fmt.Errorf("-listen %q has no host: with -peer/-peers it is this node's member ID, the address its partners dial", listen)
	}
	var members []string
	self := false
	for _, m := range strings.Split(list, ",") {
		m = strings.TrimSpace(m)
		if m == "" {
			continue
		}
		if m == listen {
			self = true
		}
		members = append(members, m)
	}
	if !self {
		members = append(members, listen)
	}
	if len(members) < 2 {
		return nil, fmt.Errorf("the member list has %d member(s): a cooperative ring needs at least 2", len(members))
	}
	return members, nil
}

// streamFields renders the per-temperature flash wear counters as STATS
// key=value fields: erases and GC copies attributed to the stream each
// erase block was serving ("untagged" covers blocks that only ever held
// GC-relocated pages).
func streamFields(fs flashcoop.StreamStats) string {
	var b strings.Builder
	for i := range fs.Erases {
		name := "untagged"
		if i < int(stream.NumStreams) {
			name = stream.Stream(i).String()
		}
		fmt.Fprintf(&b, " erases_%s=%d copies_%s=%d", name, fs.Erases[i], name, fs.Copies[i])
	}
	return b.String()
}

// victimFields renders the flash victim-cache tier's counters as STATS
// key=value fields. Empty when the tier is off, so a tier-less STATS
// line is byte-identical to the pre-tier one.
func victimFields(node *flashcoop.LiveNode) string {
	if !node.VictimEnabled() {
		return ""
	}
	st := node.Stats()
	return fmt.Sprintf(" victimHits=%d victimMisses=%d victimAdmits=%d victimFillAdmits=%d victimGhostAdmits=%d victimRejects=%d victimEvictions=%d victimInvalidates=%d victimPrograms=%d victimErases=%d",
		st.VictimHits, st.VictimMisses, st.VictimAdmits, st.VictimFillAdmits, st.VictimGhostAdmits,
		st.VictimRejects, st.VictimEvictions, st.VictimInvalidates, st.VictimPrograms, st.VictimErases)
}

// ringFields renders the ring health as HEALTH key=value fields: the
// ownership epoch, the member count, and each partner link's lifecycle
// state. Empty when no ring is configured.
func ringFields(node *flashcoop.LiveNode) string {
	epoch := node.RingEpoch()
	if epoch == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, " epoch=%d members=%d", epoch, len(node.RingMembers()))
	states := node.PeerStates()
	ids := make([]string, 0, len(states))
	for id := range states {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		fmt.Fprintf(&b, " peer_%s=%s", id, states[id])
	}
	return b.String()
}

func serveClient(node *flashcoop.LiveNode, conn net.Conn) {
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	ps := node.Device().PageSize()
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		switch strings.ToUpper(fields[0]) {
		case "WRITE":
			if len(fields) < 3 {
				fmt.Fprintln(conn, "ERR usage: WRITE <lpn> <hex>")
				continue
			}
			lpn, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				fmt.Fprintln(conn, "ERR bad lpn:", err)
				continue
			}
			payload, err := hex.DecodeString(fields[2])
			if err != nil {
				fmt.Fprintln(conn, "ERR bad hex:", err)
				continue
			}
			page := make([]byte, ps)
			copy(page, payload)
			if err := node.Write(lpn, page); err != nil {
				fmt.Fprintln(conn, "ERR", err)
				continue
			}
			fmt.Fprintln(conn, "OK")
		case "READ":
			if len(fields) < 2 {
				fmt.Fprintln(conn, "ERR usage: READ <lpn>")
				continue
			}
			lpn, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				fmt.Fprintln(conn, "ERR bad lpn:", err)
				continue
			}
			data, err := node.Read(lpn, 1)
			if err != nil {
				fmt.Fprintln(conn, "ERR", err)
				continue
			}
			fmt.Fprintf(conn, "OK %s\n", hex.EncodeToString(data[:16]))
		case "TRIM":
			if len(fields) < 3 {
				fmt.Fprintln(conn, "ERR usage: TRIM <lpn> <pages>")
				continue
			}
			lpn, err1 := strconv.ParseInt(fields[1], 10, 64)
			pages, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil {
				fmt.Fprintln(conn, "ERR bad arguments")
				continue
			}
			if err := node.Trim(lpn, pages); err != nil {
				fmt.Fprintln(conn, "ERR", err)
				continue
			}
			fmt.Fprintln(conn, "OK")
		case "STATS":
			st := node.Stats()
			wl, fl := node.WriteLatencyStats(), node.ForwardLatencyStats()
			batching := 1.0
			if st.FwdFrames > 0 {
				batching = float64(st.Forwards) / float64(st.FwdFrames)
			}
			pagesPerSync := 0.0
			if st.GroupCommitBatches > 0 {
				pagesPerSync = float64(st.PagesSynced) / float64(st.GroupCommitBatches)
			}
			fmt.Fprintf(conn, "OK writes=%d reads=%d forwards=%d fwdFrames=%d batching=%.2f persists=%d failovers=%d rebalances=%d peerAlive=%v state=%s "+
				"rejoins=%d resynced=%d overloads=%d breakerTrips=%d "+
				"evictorStalls=%d groupCommitBatches=%d pagesPerSync=%.1f "+
				"gcPressure=%.2f drainDeferrals=%d discardDeferrals=%d%s%s "+
				"wlat_p50=%.3fms wlat_p95=%.3fms wlat_p99=%.3fms flat_p50=%.3fms flat_p95=%.3fms flat_p99=%.3fms\n",
				st.Writes, st.Reads, st.Forwards, st.FwdFrames, batching, st.Persists, st.Failovers, st.Rebalances, node.PeerAlive(), node.PeerLifecycle(),
				st.Rejoins, st.ResyncedPages, st.Overloads, st.BreakerTrips,
				st.EvictorStalls, st.GroupCommitBatches, pagesPerSync,
				node.GCPressure(), st.DrainDeferrals, st.DiscardDeferrals, streamFields(node.StreamStats()), victimFields(node),
				wl.P50, wl.P95, wl.P99, fl.P50, fl.P95, fl.P99)
		case "HEALTH":
			st := node.Stats()
			pagesPerSync := 0.0
			if st.GroupCommitBatches > 0 {
				pagesPerSync = float64(st.PagesSynced) / float64(st.GroupCommitBatches)
			}
			fmt.Fprintf(conn, "OK state=%s peerAlive=%v failovers=%d suspects=%d probes=%d probeFailures=%d rejoins=%d "+
				"resyncedPages=%d resyncFailures=%d journalDrops=%d overloads=%d breakerTrips=%d "+
				"evictorStalls=%d persistFailures=%d groupCommitBatches=%d pagesPerSync=%.1f "+
				"corruptSlots=%d repairedPages=%d scrubPasses=%d fsyncPoisoned=%d poisonedEvictions=%d "+
				"membershipChanges=%d epochRejects=%d victimEnabled=%v%s\n",
				node.PeerLifecycle(), node.PeerAlive(), st.Failovers, st.Suspects, st.Probes, st.ProbeFailures, st.Rejoins,
				st.ResyncedPages, st.ResyncFailures, st.JournalDrops, st.Overloads, st.BreakerTrips,
				st.EvictorStalls, st.PersistFailures, st.GroupCommitBatches, pagesPerSync,
				st.CorruptSlots, st.RepairedPages, st.ScrubPasses, st.FsyncPoisoned, st.PoisonedEvictions,
				st.MembershipChanges, st.EpochRejects, node.VictimEnabled(), ringFields(node))
		case "SCRUB":
			checked, corrupt := node.ScrubOnce()
			st := node.Stats()
			fmt.Fprintf(conn, "OK checked=%d corrupt=%d queued=%d corruptSlots=%d repairedPages=%d scrubPasses=%d\n",
				checked, corrupt, node.RepairQueueLen(), st.CorruptSlots, st.RepairedPages, st.ScrubPasses)
		case "QUIT":
			return
		default:
			fmt.Fprintln(conn, "ERR unknown command")
		}
	}
}
