package vqprobe_test

import (
	"bytes"
	"os"
	"testing"

	"vqprobe"
)

// nilChildModel is a model file whose root split has only its left
// child: it loads, and compiling it must fail with a typed error.
const nilChildModel = `{"task":"exact","vps":["mobile"],"scales":{},"tree":{"features":["mobile.rtt"],"classes":["good","bad"],` +
	`"root":{"f":0,"t":1,"c":0,"w":2,"l":{"f":-1,"c":0,"d":[1,0],"w":1}}}}` + "\n"

// fixedRow is a controlled-setting session row over the features the
// seed model's tree reads; a fuzzed model reads whichever of them its
// schema names, and sees every other feature as missing.
var fixedRow = map[string]float64{
	"router.tcp_s2c_fin_pkts":       1,
	"mobile.tcp_c2s_dup_acks":       559,
	"mobile.wlan0_nic_channel_loss": 0,
	"mobile.tcp_c2s_last_pkt_s":     83.899498539,
	"router.eth0_nic_rx_util_avg":   0.26522572068707995,
	"router.eth0_nic_queue_drops":   25,
	"router.hw_io_wait_pct_avg":     0.46071550501885755,
}

// FuzzLoadModel treats a model file as untrusted input: arbitrary bytes
// go through LoadModel and then CompileModel, and neither may panic. A
// model both accept must classify a fixed row, and answer it the same
// after a SaveSnapshot round trip through LoadServingModel, which
// reads the snapshot back with c45.ReadSnapshot. The seeds are a model
// vqtrain wrote (120 controlled sessions, seed 3) and a nil child.
func FuzzLoadModel(f *testing.F) {
	seed, err := os.ReadFile("testdata/vqtrain_model.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(nilChildModel))
	dir := f.TempDir()

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := vqprobe.LoadModel(bytes.NewReader(data))
		if err != nil {
			return
		}
		cm, err := vqprobe.CompileModel(m)
		if err != nil {
			return
		}
		want := cm.Diagnose(fixedRow)

		snap, err := os.CreateTemp(dir, "*.snap")
		if err != nil {
			t.Fatal(err)
		}
		defer os.Remove(snap.Name())
		if err := m.SaveSnapshot(snap); err != nil {
			t.Fatalf("a model that compiles did not save as a snapshot: %v", err)
		}
		if err := snap.Close(); err != nil {
			t.Fatal(err)
		}
		back, err := vqprobe.LoadServingModel(snap.Name())
		if err != nil {
			t.Fatalf("its snapshot did not load back: %v", err)
		}
		if got := back.Diagnose(fixedRow); got.Class != want.Class {
			t.Fatalf("snapshot round trip answered %q, the loaded model %q", got.Class, want.Class)
		}
	})
}
