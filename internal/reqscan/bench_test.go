package reqscan_test

import (
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"testing"

	"vqprobe/internal/reqscan"
)

// tcpCounters are the per-direction TCP statistics each vantage point
// reports, as in a vqlab feature vector.
var tcpCounters = strings.Fields(`ack_ratio active_throughput_bps bytes
	bytes_per_pkt data_bytes data_pkts data_time_s dup_acks dupack_ratio
	fin_pkts first_data_s first_pkt_s iat_avg_ms iat_std_ms last_pkt_s
	max_idle_ms mss ooo_pkts ooo_ratio pkts pure_acks push_pkts
	retrans_bytes retrans_pkts retrans_ratio rst_pkts rtt_ms_avg rtt_ms_cnt
	rtt_ms_max rtt_ms_min rtt_ms_std seg_avg seg_max seg_min seg_std
	syn_pkts throughput_bps uniq_bytes win_avg win_max win_min win_std
	zero_wnd_pkts`)

// wideNames returns the 358 feature names of a full three-VP row.
func wideNames() []string {
	var names []string
	for _, vp := range []string{"mobile", "router", "server"} {
		for _, m := range []string{"cpu_pct", "io_wait_pct", "mem_free_mb"} {
			for _, st := range []string{"avg", "cnt", "max", "min", "std"} {
				names = append(names, vp+".hw_"+m+"_"+st)
			}
		}
		for _, dir := range []string{"c2s", "s2c"} {
			for _, c := range tcpCounters {
				names = append(names, vp+".tcp_"+dir+"_"+c)
			}
		}
		for _, c := range strings.Fields("duration_s first_data_delay_s handshake_ms rtt_any_avg_ms total_bytes total_pkts") {
			names = append(names, vp+".tcp_"+c)
		}
		for _, c := range strings.Fields("channel_loss disconnects queue_drops retries rssi_dbm_avg rssi_dbm_cnt rssi_dbm_max rssi_dbm_min rssi_dbm_std rx_util_avg rx_util_max tx_util_avg tx_util_max") {
			names = append(names, vp+".wlan0_nic_"+c)
		}
	}
	return names[:358]
}

// benchWanted is the model's side of the fixture: 10 of the row's
// names, spread over every VP, as the plan keys of a trained model are.
func benchWanted(names []string) []string {
	var w []string
	for i := 17; len(w) < 10; i += 35 {
		w = append(w, names[i])
	}
	return w
}

// benchRows renders n request lines the way vqbench does: an id, then
// the feature map as json.Marshal writes it, sorted keys and
// shortest-form floats. Values mix counters, fractions and
// 17-digit means, drawn from a fixed seed.
func benchRows(n int, names []string) [][]byte {
	x := uint64(1)
	next := func() uint64 { // splitmix64
		x += 0x9E3779B97F4A7C15
		z := (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	var rows [][]byte
	for k := 0; k < n; k++ {
		fv := make(map[string]float64, len(names))
		for _, name := range names {
			r := next()
			u := float64(r>>11) / (1 << 53)
			switch r % 4 {
			case 0:
				fv[name] = float64(r >> 40 % 2000)
			case 1:
				fv[name] = u * 1000
			case 2:
				fv[name] = u / 100
			default:
				fv[name] = math.Round(u*1e6) / 1e3
			}
		}
		feats, err := json.Marshal(fv)
		if err != nil {
			panic(err)
		}
		line := []byte(`{"id":"s` + strconv.Itoa(k) + `.` + strconv.Itoa(1000+k) + `.3","features":`)
		rows = append(rows, append(append(line, feats...), '}'))
	}
	return rows
}

var scanSink reqscan.Request

// benchScan scans rows in turn, one row per op.
func benchScan(b *testing.B, rows [][]byte, wanted []string) {
	keys := reqscan.NewKeys(wanted...)
	vals := make([]float64, keys.Len())
	size := 0
	for _, r := range rows {
		size += len(r)
	}
	b.SetBytes(int64(size / len(rows)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := reqscan.Scan(rows[i%len(rows)], keys, vals)
		if err != nil {
			b.Fatal(err)
		}
		scanSink = r
	}
}

// BenchmarkScanWide is decode on a bulk-wide row: 358 features in
// ~13 KB, of which the model reads 10.
func BenchmarkScanWide(b *testing.B) {
	names := wideNames()
	benchScan(b, benchRows(16, names), benchWanted(names))
}

// BenchmarkScanNarrow is decode on a bulk-narrow row: the model's 10
// keys alone, every one of them wanted.
func BenchmarkScanNarrow(b *testing.B) {
	wanted := benchWanted(wideNames())
	benchScan(b, benchRows(16, wanted), wanted)
}
