package ckptnet

// LastEvent returns the most recent event, or ok=false for an empty
// log — how the tests wait for a live session to record
// EvDisconnected without racing the manager's appends. Defined here
// because only the tests read a log while its session may be live.
func (l *SessionLog) LastEvent() (ev LogEvent, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.Events) == 0 {
		return LogEvent{}, false
	}
	return l.Events[len(l.Events)-1], true
}
