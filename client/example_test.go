package client_test

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"strings"

	"progressdb"
	"progressdb/client"
	"progressdb/internal/server"
)

// Example is the paper's Figure 2 display used over the network: the
// server runs in-process, the paper's Q2 streams its progress bar over
// SSE, and a long scan is killed once its indicator has been seen twice
// (the Section 6 load-management use). Every printed number is virtual
// time, so the output does not depend on the machine.
func Example() {
	const scale = 0.002
	db := progressdb.Open(progressdb.Config{
		WorkMemPages:    16,
		SeqPageCost:     0.8e-3 / scale, // virtual time as at full scale
		RandPageCost:    6.4e-3 / scale,
		BufferPoolPages: 32, // the scans below read from disk
		// The paper's 10 s refresh at a coarser grain keeps the bar short.
		ProgressUpdateSeconds: 15,
	})
	if err := db.LoadPaperWorkload(scale, false); err != nil {
		log.Fatal(err)
	}
	if err := db.ColdRestart(); err != nil {
		log.Fatal(err)
	}
	srv := server.New(db, server.Config{Workers: 1, SampleInterval: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()
	cl := client.New(ts.URL)
	ctx := context.Background()

	q2, err := progressdb.PaperQuery(2)
	if err != nil {
		log.Fatal(err)
	}
	sub, err := cl.Submit(ctx, client.SubmitRequest{SQL: q2, Name: "Q2"})
	if err != nil {
		log.Fatal(err)
	}
	err = cl.Stream(ctx, sub.ID, func(ev client.ProgressEvent) error {
		if ev.Terminal() {
			fmt.Printf("Q2 %s after %.0f s\n", ev.State, ev.ElapsedSeconds)
		} else {
			fmt.Printf("[%-20s] %5.1f%% %4.0f s left, cost %.0f U\n",
				strings.Repeat("#", int(ev.Percent/5)), ev.Percent, ev.RemainingSeconds, ev.EstTotalU)
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	// The pace holds the scan at each refresh, so the cancel, issued from
	// the second event's callback, lands long before the scan could end.
	big, err := cl.Submit(ctx, client.SubmitRequest{SQL: "select * from lineitem", Name: "big", PaceMS: 250})
	if err != nil {
		log.Fatal(err)
	}
	seen := 0
	err = cl.Stream(ctx, big.ID, func(ev client.ProgressEvent) error {
		switch {
		case ev.Terminal():
			fmt.Println("big", ev.State)
		case seen < 2:
			seen++
			fmt.Printf("big %4.1f%% done, %.0f s left\n", ev.Percent, ev.RemainingSeconds)
			if seen == 2 {
				_, err := cl.Cancel(ctx, big.ID)
				return err
			}
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	// Output:
	// [##                  ]  13.7%   76 s left, cost 233 U
	// [######              ]  33.4%   80 s left, cost 233 U
	// [#########           ]  49.3%   48 s left, cost 233 U
	// [############        ]  64.8%   34 s left, cost 233 U
	// [################    ]  80.3%   19 s left, cost 233 U
	// [################### ]  96.2%    4 s left, cost 233 U
	// [####################] 100.0%    0 s left, cost 233 U
	// Q2 done after 94 s
	// big 16.8% done, 60 s left
	// big 37.4% done, 45 s left
	// big canceled
}
