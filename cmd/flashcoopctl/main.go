// Command flashcoopctl is a small client for flashcoopd's line protocol.
//
// Usage:
//
//	flashcoopctl -addr 127.0.0.1:8001 write <lpn> <hex-bytes>
//	flashcoopctl -addr 127.0.0.1:8001 read <lpn>
//	flashcoopctl -addr 127.0.0.1:8001 stats
//	flashcoopctl -addr 127.0.0.1:8001 health
//	flashcoopctl -addr 127.0.0.1:8001 scrub           # full on-disk checksum pass, now
//	flashcoopctl -addr 127.0.0.1:8001 ring            # ring epoch + per-partner states
//	flashcoopctl -addr 127.0.0.1:8001 victim          # flash victim-cache tier counters
//	flashcoopctl -addr 127.0.0.1:8001 bench -n 1000   # sequential write benchmark
package main

import (
	"bufio"
	"flag"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"time"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8001", "flashcoopd client address")
	n := flag.Int("n", 1000, "bench: number of page writes")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}

	conn, err := net.DialTimeout("tcp", *addr, 3*time.Second)
	if err != nil {
		fatal(err)
	}
	defer conn.Close()
	rd := bufio.NewReader(conn)

	switch strings.ToLower(args[0]) {
	case "write":
		if len(args) != 3 {
			usage()
		}
		resp, err := call(conn, rd, fmt.Sprintf("WRITE %s %s", args[1], args[2]))
		if err != nil {
			fatal(err)
		}
		fmt.Println(resp)
	case "read":
		if len(args) != 2 {
			usage()
		}
		resp, err := call(conn, rd, "READ "+args[1])
		if err != nil {
			fatal(err)
		}
		fmt.Println(resp)
	case "stats":
		resp, err := call(conn, rd, "STATS")
		if err != nil {
			fatal(err)
		}
		fmt.Println(resp)
	case "health":
		resp, err := call(conn, rd, "HEALTH")
		if err != nil {
			fatal(err)
		}
		fmt.Println(resp)
	case "scrub":
		resp, err := call(conn, rd, "SCRUB")
		if err != nil {
			fatal(err)
		}
		fmt.Println(resp)
	case "ring":
		// Ring view: the HEALTH fields that describe the ring layout (epoch,
		// member count, per-partner lifecycle states), one per line.
		resp, err := call(conn, rd, "HEALTH")
		if err != nil {
			fatal(err)
		}
		printed := false
		for _, f := range strings.Fields(resp) {
			if f == "OK" || strings.HasPrefix(f, "epoch=") || strings.HasPrefix(f, "members=") ||
				strings.HasPrefix(f, "peer_") || strings.HasPrefix(f, "epochRejects=") ||
				strings.HasPrefix(f, "membershipChanges=") {
				fmt.Println(f)
				printed = true
			}
		}
		if !printed || !strings.Contains(resp, "epoch=") {
			fmt.Println("no ring configured")
		}
	case "victim":
		// Victim-tier view: the STATS fields that describe the flash
		// victim cache (hits, misses, admission split, wear), one per
		// line. The daemon omits them entirely when the tier is off.
		resp, err := call(conn, rd, "STATS")
		if err != nil {
			fatal(err)
		}
		printed := false
		for _, f := range strings.Fields(resp) {
			if strings.HasPrefix(f, "victim") {
				fmt.Println(f)
				printed = true
			}
		}
		if !printed {
			fmt.Println("victim tier off (start flashcoopd with -victim-segments)")
		}
	case "bench":
		start := time.Now()
		for i := 0; i < *n; i++ {
			resp, err := call(conn, rd, "WRITE "+strconv.Itoa(i)+" ab")
			if err != nil {
				fatal(err)
			}
			if !strings.HasPrefix(resp, "OK") {
				fatal(fmt.Errorf("write %d: %s", i, resp))
			}
		}
		elapsed := time.Since(start)
		fmt.Printf("%d page writes in %v (%.0f writes/s, %.3f ms/write)\n",
			*n, elapsed.Round(time.Millisecond),
			float64(*n)/elapsed.Seconds(),
			elapsed.Seconds()*1000/float64(*n))
	default:
		usage()
	}
}

func call(conn net.Conn, rd *bufio.Reader, line string) (string, error) {
	if err := conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		return "", err
	}
	if _, err := fmt.Fprintln(conn, line); err != nil {
		return "", err
	}
	resp, err := rd.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimSpace(resp), nil
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: flashcoopctl [-addr host:port] write <lpn> <hex> | read <lpn> | stats | health | scrub | ring | victim | bench [-n count]")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "flashcoopctl:", err)
	os.Exit(1)
}
