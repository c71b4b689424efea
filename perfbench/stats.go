package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// quantile returns the q-quantile of xs (linear interpolation between
// order statistics); NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tail returns the q-quantile of xs and warns on standard error when fewer
// than ten samples lie beyond it, the least a reported percentile needs.
func tail(name string, xs []float64, q float64) float64 {
	if beyond := int(float64(len(xs)) * (1 - q)); beyond < 10 {
		fmt.Fprintf(os.Stderr, "perfbench: %s rests on %d samples, %d beyond the percentile (want 10)\n", name, len(xs), beyond)
	}
	return quantile(xs, q)
}

// procStatusKB reads one "<field>: N kB" line of /proc/self/status.
func procStatusKB(field string) (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, field+":") {
			continue
		}
		fields := strings.Fields(line[len(field)+1:])
		if len(fields) == 0 {
			break
		}
		return strconv.ParseFloat(fields[0], 64)
	}
	return 0, fmt.Errorf("/proc/self/status: no %s line", field)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	kb, err := procStatusKB("VmHWM")
	return kb / 1024, err
}

// rssKB is the process's current resident set (VmRSS).
func rssKB() (float64, error) { return procStatusKB("VmRSS") }

// totalAlloc is the Go heap's cumulative allocated bytes.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
