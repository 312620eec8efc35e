package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
)

// payloadSize is the publish payload length. The first 8 bytes carry the
// event's sequence number; the rest is derived from the seed and the
// sequence number, so the subscriber can verify every byte.
const payloadSize = 256

// inputs is everything the seed generates: the program receives only these.
type inputs struct {
	seed       int64
	topics     []string // concrete topics events are published on
	patterns   []string // the subscriber's pattern set
	requesters []string // requester node names
	publisher  string
	subscriber string
}

// words is the alphabet topic segments are drawn from.
var words = []string{"alpha", "bravo", "delta", "echo", "kilo", "lima", "metro",
	"nova", "orbit", "pico", "quad", "sigma", "tango", "ultra", "vega", "zulu"}

func makeInputs(seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	word := func() string { return words[rng.Intn(len(words))] }
	in := &inputs{seed: seed}
	for i := 0; i < 32; i++ {
		in.topics = append(in.topics, fmt.Sprintf("grid/%s/%s/s%d", word(), word(), rng.Intn(1000)))
	}
	// Mostly wildcard patterns that share a prefix with the published
	// topics and fail deeper in the trie, a few exact topics, and one
	// catch-all so that every event is delivered exactly once.
	for len(in.patterns) < 255 {
		segs := strings.Split(in.topics[rng.Intn(len(in.topics))], "/")
		switch rng.Intn(5) {
		case 0:
			segs[1] = "*"
			segs[3] = fmt.Sprintf("x%d", rng.Intn(1000))
		case 1:
			segs[2] = "*"
			segs[3] = fmt.Sprintf("y%d", rng.Intn(1000))
		case 2:
			segs[2] = word() + "x"
			segs[3] = "*"
		case 3:
			segs = append(segs[:2], fmt.Sprintf("z%d", rng.Intn(1000)), "**")
		default:
			if rng.Intn(4) != 0 {
				segs[0] = "mesh"
			}
		}
		in.patterns = append(in.patterns, strings.Join(segs, "/"))
	}
	in.patterns = append(in.patterns, "grid/**")
	for i := 0; i < 2; i++ {
		in.requesters = append(in.requesters, fmt.Sprintf("node-%s-%d", word(), rng.Intn(1e6)))
	}
	in.publisher = fmt.Sprintf("pub-%s-%d", word(), rng.Intn(1e6))
	in.subscriber = fmt.Sprintf("sub-%s-%d", word(), rng.Intn(1e6))
	return in
}

// mix is splitmix64, the per-event byte and topic generator.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// topic returns the topic event seq is published on.
func (in *inputs) topic(seq uint64) string {
	return in.topics[mix(uint64(in.seed)^seq<<1)%uint64(len(in.topics))]
}

// fillPayload writes event seq's payload into p (len payloadSize).
func (in *inputs) fillPayload(p []byte, seq uint64) {
	binary.LittleEndian.PutUint64(p, seq)
	x := uint64(in.seed)*0x2545f4914f6cdd1d ^ seq
	for i := 8; i < len(p); i += 8 {
		x = mix(x)
		binary.LittleEndian.PutUint64(p[i:], x)
	}
}

// checkPayload reports whether p is exactly event seq's payload, and seq.
func (in *inputs) checkPayload(p []byte) (uint64, bool) {
	if len(p) != payloadSize {
		return 0, false
	}
	seq := binary.LittleEndian.Uint64(p)
	var want [payloadSize]byte
	in.fillPayload(want[:], seq)
	return seq, string(want[:]) == string(p)
}
