package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Layer buckets of the traced run's CPU profile. The first ten are the
// repository's modules under internal/; the runtime is split into the
// scheduler, the garbage collector, stack growth and the allocator,
// which the profiles show as first-class costs of a goroutine-per-
// request discrete-event simulator. "other" takes the rest: the
// benchmark program itself and internal packages that are not one of the
// named layers (cluster adapters, catalog, timecurl, trace, mobility).
var layerNames = []string{
	"vclock", "netem", "openflow", "core", "kube", "docker", "containerd",
	"registry", "metrics", "testbed",
	"runtime.sched", "runtime.gc", "runtime.stack", "runtime.malloc",
	"other",
}

const modulePrefix = "github.com/c3lab/transparentedge/internal/"

var repoLayers = map[string]bool{
	"vclock": true, "netem": true, "openflow": true, "core": true, "kube": true,
	"docker": true, "containerd": true, "registry": true, "metrics": true,
	"testbed": true,
}

// Runtime function-name prefixes (after "runtime.") that belong to one
// of the runtime buckets. Anything else in the runtime — map probes,
// memmove, hashing, interface conversions — is a helper doing work for
// its caller and is charged to the nearest caller that decides.
var runtimeBuckets = []struct {
	bucket   string
	prefixes []string
}{
	{"runtime.sched", []string{
		"futex", "findRunnable", "findrunnable", "schedule", "park_m", "gopark",
		"goready", "ready", "notesleep", "notetsleep", "notewakeup", "wakep",
		"startm", "stopm", "mPark", "runq", "globrunq", "stealWork", "mcall",
		"gosched", "goschedImpl", "usleep", "osyield", "procyield", "lock2",
		"unlock2", "lockWithRank", "unlockWithRank", "semacquire", "semrelease",
		"goexit", "newproc", "execute", "casgstatus", "resetspinning", "netpoll",
		"checkTimers", "chansend", "chanrecv", "selectgo", "send", "recv",
		"handoffp", "acquirep", "releasep", "entersyscall", "exitsyscall",
		"gfget", "gfput", "malg", "(*timers)", "sellock", "selunlock",
	}},
	{"runtime.gc", []string{
		"gc", "(*gcWork)", "(*gcControllerState)", "(*gcCPULimiterState)",
		"scanobject", "scanblock", "scanstack", "scanframeworker", "markroot",
		"greyobject", "findObject", "shade", "wbBuf", "(*wbBuf)", "bulkBarrier",
		"bgsweep", "sweepone", "(*sweepLocked)", "(*mspan).sweep",
		"(*mspan).typePointersOf", "typePointers", "(*typePointers)", "bgscavenge",
		"(*scavengerState)", "(*pageAlloc).scavenge", "(*mheap).reclaim",
		"(*mspan).markBitsForIndex", "(*gcBits)", "spanOf", "freeSomeWbufs",
	}},
	{"runtime.stack", []string{
		"newstack", "copystack", "morestack", "adjust", "stackalloc", "stackfree",
		"stackcache", "stackpool", "shrinkstack", "(*unwinder)", "pcvalue",
		"findfunc", "funcspdelta", "step", "readvarint", "gentraceback",
		"syncadjustsudogs",
	}},
	{"runtime.malloc", []string{
		"mallocgc", "nextFreeFast", "(*mcache)", "(*mcentral)", "(*mheap).alloc",
		"(*mspan).nextFreeIndex", "newobject", "(*mheap).grow", "(*pageAlloc).alloc",
	}},
}

// layerOf attributes one CPU sample to a layer. frames are the sample's
// function names, leaf first. The leaf decides, with one refinement:
// a frame that belongs to no layer (a runtime helper that is not one of
// the four runtime buckets, or a standard-library function) is charged
// to the nearest caller that does, so a map probe inside the controller
// counts as controller work.
func layerOf(frames []string) string {
	for _, f := range frames {
		if l, ok := frameLayer(f); ok {
			return l
		}
	}
	return "other"
}

// frameLayer reports the layer a single frame decides, if any.
func frameLayer(fn string) (string, bool) {
	if rest, ok := strings.CutPrefix(fn, modulePrefix); ok {
		pkg := rest
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		if repoLayers[pkg] {
			return pkg, true
		}
		return "other", true
	}
	if rest, ok := strings.CutPrefix(fn, "runtime."); ok {
		for _, b := range runtimeBuckets {
			for _, p := range b.prefixes {
				if strings.HasPrefix(rest, p) {
					return b.bucket, true
				}
			}
		}
		return "", false
	}
	if strings.HasPrefix(fn, "main.") {
		return "other", true
	}
	return "", false
}

// layerShares decodes a gzipped pprof CPU profile and returns each
// layer's share of the sampled CPU time. Every name in layerNames is
// present; the shares sum to 1 when the profile holds any sample.
func layerShares(gz []byte) (map[string]float64, error) {
	samples, err := decodeProfile(gz)
	if err != nil {
		return nil, err
	}
	shares := make(map[string]float64, len(layerNames))
	for _, l := range layerNames {
		shares[l] = 0
	}
	var total float64
	for _, s := range samples {
		shares[layerOf(s.frames)] += float64(s.weight)
		total += float64(s.weight)
	}
	if total > 0 {
		for l := range shares {
			shares[l] /= total
		}
	}
	return shares, nil
}

// profSample is one decoded profile sample: its stack as function
// names, leaf first (inlined frames expanded), and its weight (the last
// sample value — CPU nanoseconds in a CPU profile).
type profSample struct {
	frames []string
	weight int64
}

// decodeProfile reads the subset of the pprof protobuf format
// (github.com/google/pprof/proto/profile.proto) that layer attribution
// needs: samples, locations with their inline lines, functions and the
// string table. The standard library writes profiles in this format but
// offers no reader.
func decodeProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples []rawSample
		locFns  = map[uint64][]uint64{} // location id → function ids, leaf first
		fnName  = map[uint64]int64{}    // function id → string index
		strs    []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, b)
				case 2:
					s.values = appendVarints(s.values, wire, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		ps := profSample{}
		if n := len(s.values); n > 0 {
			ps.weight = int64(s.values[n-1])
		}
		for _, loc := range s.locs {
			for _, fid := range locFns[loc] {
				name := ""
				if i := fnName[fid]; i >= 0 && int(i) < len(strs) {
					name = strs[i]
				}
				ps.frames = append(ps.frames, name)
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// appendVarints appends a repeated scalar field, packed (wire type 2)
// or not (wire type 0).
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks the fields of one protobuf message, calling fn with
// the field number, wire type, varint value (wire 0) and payload
// (wire 2). Fixed-width fields are skipped.
func eachField(b []byte, fn func(num, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}
