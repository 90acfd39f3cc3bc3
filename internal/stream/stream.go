// Package stream defines the write-temperature taxonomy FlashCoop uses to
// segregate flushed pages into per-lifetime erase blocks (multi-stream
// writes). The buffer layer derives a tag for every flush unit from LAR's
// block popularity, write-stamp age, and run-length detection; the tag
// rides the evictor batches and the v2 peer frames down to the FTL, which
// keeps one active/log block per stream so pages with different lifetimes
// never cohabit an erase block before GC.
//
// The package sits below every other layer (flash, ftl, buffer, ssd,
// cluster all import it) so the tag type can cross package boundaries
// without import cycles.
package stream

// Stream is a write-temperature class. The zero value is Warm, the
// default stream: untagged writes (host writes outside the eviction path,
// GC-internal moves, recovery replays, frames from peers that predate
// tagging) land there, so every legacy path keeps working unchanged.
type Stream uint8

const (
	// Warm is the default stream: moderately popular blocks and any
	// write whose temperature is unknown.
	Warm Stream = iota
	// Hot marks frequently rewritten blocks (high LAR popularity or
	// young write stamps); their pages die fast, so co-locating them
	// makes whole blocks invalidate together.
	Hot
	// Cold marks write-once blocks (popularity 1, scattered small
	// writes); their pages live long, so isolating them keeps GC from
	// copying them over and over.
	Cold
	// Seq marks full sequential block flushes; they invalidate in bulk
	// when overwritten and erase almost for free.
	Seq

	// NumStreams is the number of distinct streams; valid tags are
	// 0..NumStreams-1.
	NumStreams = 4
)

// FromByte decodes a wire tag. Unknown values degrade to the default
// stream rather than erroring, so new tags can be introduced without
// breaking old decoders (and fuzzed garbage stays harmless).
func FromByte(b byte) Stream {
	if b >= NumStreams {
		return Warm
	}
	return Stream(b)
}

// Valid reports whether s is a defined stream tag.
func (s Stream) Valid() bool { return s < NumStreams }

// String names the stream for stats and logs.
func (s Stream) String() string {
	switch s {
	case Warm:
		return "warm"
	case Hot:
		return "hot"
	case Cold:
		return "cold"
	case Seq:
		return "seq"
	default:
		return "unknown"
	}
}

// VictimAdmissible reports whether the class is even a candidate for the
// flash victim cache. Hot and Warm evictions carry re-reference odds worth
// a cache write; Cold (write-once) and Seq (streaming) pages would only
// inflate the tier's write amplification for data nobody reads back soon,
// so they bypass it unconditionally — the class check runs before any
// popularity threshold.
func (s Stream) VictimAdmissible() bool { return s == Hot || s == Warm }
