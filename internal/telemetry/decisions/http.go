package decisions

import (
	"bytes"
	"errors"
	"net/url"

	"heroserve/internal/telemetry"
)

// Route is the daemon path serving the decision ledger; publish the output
// of Ledger.WriteJSON under it.
const Route = "/decisions"

// File is the document's name in a run bundle (serve -out), where hstat
// decisions finds it.
const File = "decisions.json"

// InstallDecisions registers the /decisions document route on a telemetry
// daemon server:
//
//	/decisions[?run=<id>][&kind=collective|scale][&policy=<name>][&from=<t>][&to=<t>]
//
// The kind/policy/from/to filters are applied server-side via Ledger.Filter.
func InstallDecisions(srv *telemetry.Server) {
	srv.HandleDoc(Route, "decision ledger", &telemetry.Filter{
		Params: []string{"kind", "policy"},
		Parse: func(q url.Values) (telemetry.Narrow, error) {
			kind, policy := q.Get("kind"), q.Get("policy")
			if kind != "" && kind != KindCollective && kind != KindScale {
				return nil, errors.New("bad kind: want collective or scale")
			}
			return func(doc []byte, from, to float64) (telemetry.Document, error) {
				led, err := ReadJSON(bytes.NewReader(doc))
				if err != nil {
					return nil, err
				}
				return led.Filter(kind, policy, from, to), nil
			}, nil
		},
	})
}
