package slo

import (
	"bytes"
	"errors"
	"net/url"

	"heroserve/internal/telemetry"
)

// Route is the daemon path serving the SLO alert log; publish the output of
// Monitor.WriteLog under it.
const Route = "/alerts"

// File is the document's name in a run bundle (serve -out), where hstat
// slo finds it.
const File = "alerts.json"

// InstallAlerts registers the /alerts document route on a telemetry daemon
// server:
//
//	/alerts[?run=<id>][&state=pending|firing|resolved][&rule=<name>][&from=<t>][&to=<t>]
//
// The state/rule/from/to filters are applied server-side via Log.Filter.
func InstallAlerts(srv *telemetry.Server) {
	srv.HandleDoc(Route, "alert log", &telemetry.Filter{
		Params: []string{"state", "rule"},
		Parse: func(q url.Values) (telemetry.Narrow, error) {
			state, rule := q.Get("state"), q.Get("rule")
			switch State(state) {
			case "", StatePending, StateFiring, StateResolved:
			default:
				return nil, errors.New("bad state: want pending, firing, or resolved")
			}
			return func(doc []byte, from, to float64) (telemetry.Document, error) {
				log, err := ReadLog(bytes.NewReader(doc))
				if err != nil {
					return nil, err
				}
				return log.Filter(state, rule, from, to), nil
			}, nil
		},
	})
}
