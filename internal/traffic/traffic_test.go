package traffic

import (
	"math"
	"testing"

	"greencell/internal/rng"
)

func TestDemandPktsPerSlot(t *testing.T) {
	// 150 KB frames at 500 Kbps over a 60 s slot: 25 packets.
	got := DemandPktsPerSlot(DefaultDemandBitsPerSec, 60, DefaultPacketBits)
	if math.Abs(got-25) > 1e-9 {
		t.Errorf("DemandPktsPerSlot = %v, want 25", got)
	}
}

func TestPaperSessions(t *testing.T) {
	users := []int{2, 3, 4, 5, 6, 7}
	m := PaperSessions(4, users, 60, rng.New(1))
	if m.NumSessions() != 4 {
		t.Fatalf("NumSessions = %d, want 4", m.NumSessions())
	}
	if m.PacketBits != DefaultPacketBits {
		t.Errorf("PacketBits = %v", m.PacketBits)
	}
	seen := map[int]bool{}
	valid := map[int]bool{}
	for _, u := range users {
		valid[u] = true
	}
	for _, s := range m.Sessions {
		if !valid[s.Dest] {
			t.Errorf("session %d destination %d not a user", s.ID, s.Dest)
		}
		if seen[s.Dest] {
			t.Errorf("duplicate destination %d", s.Dest)
		}
		seen[s.Dest] = true
		if s.MaxAdmission < s.DemandPkts {
			t.Errorf("session %d cannot sustain demand", s.ID)
		}
	}
	if err := m.Validate(10); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestPaperSessionsClampsCount(t *testing.T) {
	m := PaperSessions(10, []int{1, 2}, 60, rng.New(1))
	if m.NumSessions() != 2 {
		t.Fatalf("NumSessions = %d, want clamped 2", m.NumSessions())
	}
}

func TestValidate(t *testing.T) {
	tests := []struct {
		name    string
		m       Model
		nodes   int
		wantErr bool
	}{
		{"ok", Model{PacketBits: 100, Sessions: []Session{{Dest: 1, DemandPkts: 2, MaxAdmission: 2}}}, 3, false},
		{"zero packet bits", Model{Sessions: nil}, 3, true},
		{"dest out of range", Model{PacketBits: 100, Sessions: []Session{{Dest: 9}}}, 3, true},
		{"negative demand", Model{PacketBits: 100, Sessions: []Session{{Dest: 1, DemandPkts: -1}}}, 3, true},
		{"admission below demand", Model{PacketBits: 100, Sessions: []Session{{Dest: 1, DemandPkts: 5, MaxAdmission: 4}}}, 3, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.m.Validate(tt.nodes); (err != nil) != tt.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestSinkTable(t *testing.T) {
	// Nodes 0 and 1 are base stations; session 0 is downlink to user 3,
	// session 1 is uplink from user 2 (anycast to any base station).
	m := &Model{Sessions: []Session{{ID: 0, Dest: 3}, {ID: 1, Uplink: true, Source: 2}}}
	tab := m.SinkTable(5, func(node int) bool { return node < 2 })
	want := [][]bool{
		{false, false, false, true, false},
		{true, true, false, false, false},
	}
	for s, row := range want {
		for node, w := range row {
			if got := tab.IsSink(s, node); got != w {
				t.Errorf("IsSink(%d, %d) = %v, want %v", s, node, got, w)
			}
		}
	}
}
