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

// cpuBuckets are the layers CPU-profile samples are attributed to, as
// per-layer metric names.
var cpuBuckets = []string{
	"cpu.engine",
	"cpu.memsys",
	"cpu.vid",
	"cpu.sched",
	"cpu.gc",
	"cpu.instruments",
	"cpu.ckpt",
	"cpu.check",
	"cpu.other",
}

// layerPackages maps the simulator's packages to their bucket. Packages of
// the module not listed here (workloads, paradigm, hmtx, smtx, experiments,
// ...) and the benchmark itself count as cpu.other.
var layerPackages = map[string]string{
	"hmtx/internal/engine":  "cpu.engine",
	"hmtx/internal/memsys":  "cpu.memsys",
	"hmtx/internal/vid":     "cpu.vid",
	"hmtx/internal/check":   "cpu.check",
	"hmtx/internal/prof":    "cpu.instruments",
	"hmtx/internal/metrics": "cpu.instruments",
	"hmtx/internal/obs":     "cpu.instruments",
	"hmtx/internal/ckpt":    "cpu.ckpt",
}

// gcFrames and schedFrames are substrings of runtime function names that
// mark allocation and garbage collection, and goroutine scheduling, channel
// handoff and parking. gcFrames is tested first, so a lock taken by the
// allocator counts as allocation.
var gcFrames = []string{
	"malloc", "memclr", "sweep", "mark", "scanobject", "scanblock", "scanstack",
	"scanframe", "greyobject", "findObject", "gcDrain", "gcBg", "gcStart",
	"gcAssist", "gcFlush", "heapBits", "heapSetType", "wbBuf", "bulkBarrier",
	"WriteBarrier", "(*mspan)", "(*mheap)", "(*mcache)", "(*mcentral)",
	"(*gcWork)", "(*gcBits)", "(*pageAlloc)", "(*pallocBits)", "(*fixalloc)",
	"(*gcControllerState)", "scaveng", "newobject", "newarray", "makeslice",
	"growslice", "makemap", "nextFreeFast", "sysAlloc", "sysUsed", "sysUnused",
	"madvise", "deductAssistCredit",
}

var schedFrames = []string{
	"chansend", "chanrecv", "closechan", "selectgo", "runtime.send", "runtime.recv",
	"park", "Park", "ready", "schedule", "findRunnable", "runq", "stealWork",
	"futex", "note", "wakep", "startm", "stopm", "handoffp", "acquirep",
	"releasep", "lock", "execute", "gogo", "mcall", "gosched", "casgstatus",
	"newproc", "goexit", "gfget", "gfput", "usleep", "osyield", "netpoll",
	"checkTimers", "(*timers)", "spinning", "pidle", "syscall", "sema",
	"procyield", "sysmon", "injectglist", "globrunq", "(*waitq)",
}

// classify attributes one CPU-profile sample, given its call stack from the
// leaf outwards, to a bucket.
//
// A sample with a checkpoint or instrument frame anywhere on its stack
// belongs to that layer: the memsys walks (AppendExact, SpecOccupancy),
// encoding/json and encoding/hex frames beneath those calls run only on
// their behalf. Otherwise the runtime frames at the leaf decide if any of
// them allocates or collects (cpu.gc) or schedules (cpu.sched); failing
// that, the first simulator frame from the leaf decides. Other
// standard-library and runtime frames (memmove, map access, sort) are
// charged to their caller.
func classify(stack []string) string {
	for _, owner := range []string{"cpu.ckpt", "cpu.instruments"} {
		for _, f := range stack {
			if layerPackages[pkgOf(f)] == owner {
				return owner
			}
		}
	}
	leaf := 0
	for leaf < len(stack) && strings.HasPrefix(stack[leaf], "runtime.") {
		leaf++
	}
	for _, kind := range []struct {
		bucket string
		frames []string
	}{{"cpu.gc", gcFrames}, {"cpu.sched", schedFrames}} {
		for _, f := range stack[:leaf] {
			if containsAny(f, kind.frames) {
				return kind.bucket
			}
		}
	}
	for _, f := range stack[leaf:] {
		pkg := pkgOf(f)
		if b, ok := layerPackages[pkg]; ok {
			return b
		}
		if pkg == "main" || strings.HasPrefix(pkg, "hmtx/") {
			return "cpu.other"
		}
	}
	return "cpu.other"
}

func containsAny(s string, subs []string) bool {
	for _, sub := range subs {
		if strings.Contains(s, sub) {
			return true
		}
	}
	return false
}

// pkgOf returns the import path of a symbol such as
// "hmtx/internal/memsys.(*Hierarchy).Load" or "runtime.mallocgc".
func pkgOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// cpuShares decodes a CPU profile and returns each bucket's share of its
// samples. An empty profile gives every bucket 0.
func cpuShares(gz []byte) (map[string]float64, error) {
	samples, err := decodeProfile(gz)
	if err != nil {
		return nil, err
	}
	shares := map[string]float64{}
	var total float64
	for _, s := range samples {
		if s.aside {
			continue
		}
		shares[classify(s.stack)] += float64(s.count)
		total += float64(s.count)
	}
	if total == 0 {
		return shares, nil
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, nil
}

// stackSample is one profile sample: its call stack, leaf first, how many
// times it was taken, and whether it fell in work the benchmark does aside
// from the workload (see bench.aside), which is left out of the shares.
type stackSample struct {
	stack []string
	count int64
	aside bool
}

// asideLabel is the pprof label bench.aside puts on its work.
var asideLabel = [2]string{"perfbench", "aside"}

// decodeProfile reads a gzipped pprof profile (profile.proto) as written by
// runtime/pprof. It keeps only what bucketing needs: each sample's first
// value and its stack of function names, inlined frames expanded.
func decodeProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}

	type sample struct {
		locs, values []uint64
		labels       [][2]int64 // key and value string indexes
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id -> function ids, leaf first
		fnName  = map[uint64]int64{}    // function id -> string index
		strs    []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				var err error
				switch num {
				case 1:
					s.locs, err = appendVarints(s.locs, v, b)
				case 2:
					s.values, err = appendVarints(s.values, v, b)
				case 3: // Label
					var kv [2]int64
					err = eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 || num == 2 {
							kv[num-1] = int64(v)
						}
						return nil
					})
					s.labels = append(s.labels, kv)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
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
			err := eachField(b, func(num int, v uint64, _ []byte) error {
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

	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			return nil, errors.New("pprof: sample without values")
		}
		str := func(i int64) (string, error) {
			if i < 0 || int(i) >= len(strs) {
				return "", fmt.Errorf("pprof: string index %d out of range", i)
			}
			return strs[i], nil
		}
		ss := stackSample{count: int64(s.values[0])}
		for _, l := range s.locs {
			for _, fn := range locFns[l] {
				name, err := str(fnName[fn])
				if err != nil {
					return nil, err
				}
				ss.stack = append(ss.stack, name)
			}
		}
		for _, kv := range s.labels {
			k, err := str(kv[0])
			if err != nil {
				return nil, err
			}
			v, err := str(kv[1])
			if err != nil {
				return nil, err
			}
			ss.aside = ss.aside || [2]string{k, v} == asideLabel
		}
		out = append(out, ss)
	}
	return out, nil
}

// eachField calls f for every field of a protobuf message: v holds a varint
// or fixed-width value, b the bytes of a length-delimited field.
func eachField(msg []byte, f func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("pprof: bad field key")
		}
		msg = msg[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("pprof: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("pprof: short fixed64")
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("pprof: bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("pprof: short fixed32")
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", key&7)
		}
		if err := f(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field, packed (b holds varints)
// or not (v is the value).
func appendVarints(xs []uint64, v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return append(xs, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("pprof: bad packed varint")
		}
		xs, b = append(xs, x), b[n:]
	}
	return xs, nil
}
