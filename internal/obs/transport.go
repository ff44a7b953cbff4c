package obs

import "sync/atomic"

// TransportObs is one network edge's live telemetry: a lock-free
// counter block the transport's links bump on their hot send/receive
// paths. One TransportObs covers one peer connection (the source's
// link to one shard node, or a worker's serving side).
type TransportObs struct {
	Name string

	TxFrames atomic.Int64 // frames written, including retransmits
	RxFrames atomic.Int64 // frames read, including redeliveries
	TxBytes  atomic.Int64 // wire bytes written (header + body)
	RxBytes  atomic.Int64 // wire bytes read (header + body)

	Reconnects   atomic.Int64 // successful redials adopted
	CreditStalls atomic.Int64 // sends that blocked on the credit window
}

// RegisterTransport adds one network edge's counter block.
func (in *Instruments) RegisterTransport(name string) *TransportObs {
	t := &TransportObs{Name: name}
	in.mu.Lock()
	in.transports = append(in.transports, t)
	in.registered++
	in.mu.Unlock()
	return t
}

// TransportSnapshot is one network edge's counters at snapshot time.
type TransportSnapshot struct {
	Name         string `json:"name"`
	TxFrames     int64  `json:"tx_frames"`
	RxFrames     int64  `json:"rx_frames"`
	TxBytes      int64  `json:"tx_bytes"`
	RxBytes      int64  `json:"rx_bytes"`
	Reconnects   int64  `json:"reconnects"`
	CreditStalls int64  `json:"credit_stalls"`
}

func transportSnapshot(t *TransportObs) TransportSnapshot {
	return TransportSnapshot{
		Name:         t.Name,
		TxFrames:     t.TxFrames.Load(),
		RxFrames:     t.RxFrames.Load(),
		TxBytes:      t.TxBytes.Load(),
		RxBytes:      t.RxBytes.Load(),
		Reconnects:   t.Reconnects.Load(),
		CreditStalls: t.CreditStalls.Load(),
	}
}
