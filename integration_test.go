package narada

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"narada/internal/bdn"
	"narada/internal/broker"
	"narada/internal/core"
	"narada/internal/fragment"
	"narada/internal/reliable"
	"narada/internal/simnet"
	"narada/internal/testbed"
	"narada/internal/topology"
)

// TestFullSystemStory is the capstone integration test: one deployment
// exercising the complete life of an entity in the messaging infrastructure —
// discovery of the nearest broker, connection, subscription, cross-network
// delivery, reliable streams, fragmentation, replay of missed history, and
// survival of a BDN failure.
func TestFullSystemStory(t *testing.T) {
	specs := testbed.PaperBrokers()
	tb, err := testbed.New(testbed.Options{
		Topology:     topology.Star,
		InjectPolicy: bdn.InjectClosestFarthest,
		// At scale 10 the 300ms ack timeout of Act 4 and the 200ms
		// subscription settles are 20-30ms of wall clock, above the
		// scheduler stalls of a loaded host.
		Scale:    10,
		Seed:     2026,
		Brokers:  specs,
		BDNCount: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()

	// Act 1 — discovery: a Bloomington client finds its nearest broker.
	d := tb.NewDiscoverer(simnet.SiteBloomington, "story-client", core.Config{
		CollectWindow: 2 * time.Second,
		MaxResponses:  5,
	})
	res, err := d.Discover()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Responses) != 5 || res.Via != core.ViaBDN {
		t.Fatalf("discovery degraded: %d responses via %s", len(res.Responses), res.Via)
	}

	// Act 2 — pub/sub across the network: subscribe at the discovered
	// broker, publish from the far side of the WAN.
	node := tb.ClientNode(simnet.SiteBloomington, "story-app")
	client, err := broker.Connect(node, res.Selected.Endpoint("tcp"), "story-app")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.Subscribe("story/**"); err != nil {
		t.Fatal(err)
	}
	tb.Net.Clock().Sleep(200 * time.Millisecond)
	if err := tb.BrokerByName("broker-cardiff").Publish("story/hello", []byte("transatlantic")); err != nil {
		t.Fatal(err)
	}
	ev, err := client.Next(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(ev.Payload) != "transatlantic" {
		t.Fatalf("payload = %q", ev.Payload)
	}

	// Act 3 — a large dataset moves reliably and fragmented across the
	// network.
	subNode := tb.ClientNode(simnet.SiteFSU, "story-consumer")
	subClient, err := broker.Connect(subNode, tb.BrokerByName("broker-fsu").StreamAddr(), "story-consumer")
	if err != nil {
		t.Fatal(err)
	}
	defer subClient.Close()
	sub := reliable.NewSubscriber(subClient)
	defer sub.Close()
	if err := sub.Subscribe("story/data/*"); err != nil {
		t.Fatal(err)
	}
	tb.Net.Clock().Sleep(200 * time.Millisecond)

	pubClient, err := broker.Connect(node, res.Selected.Endpoint("tcp"), "story-producer")
	if err != nil {
		t.Fatal(err)
	}
	defer pubClient.Close()
	pub, err := reliable.NewPublisher(node, pubClient, reliable.PublisherConfig{
		Source: "story-producer", RedeliverAfter: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	var sb bytes.Buffer
	for i := 0; i < 5000; i++ {
		fmt.Fprintf(&sb, "row-%05d,value=%d\n", i, i*i)
	}
	dataset := sb.Bytes()
	frags, err := fragment.Split(dataset, fragment.Config{Compress: true, FragmentSize: 8192})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frags {
		if err := pub.Publish("story/data/run1", fragment.Encode(f)); err != nil {
			t.Fatal(err)
		}
	}
	co := fragment.NewCoalescer(0, nil)
	deadline := time.Now().Add(30 * time.Second)
	var rebuilt []byte
	for rebuilt == nil && time.Now().Before(deadline) {
		env, err := sub.Next(5 * time.Second)
		if err != nil {
			continue
		}
		f, err := fragment.Decode(env.Payload)
		if err != nil {
			t.Fatal(err)
		}
		payload, done, err := co.Add(f)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			rebuilt = payload
		}
	}
	if !bytes.Equal(rebuilt, dataset) {
		t.Fatalf("dataset corrupted in transit: %d vs %d bytes", len(rebuilt), len(dataset))
	}

	// Act 4 — the primary BDN dies; rediscovery succeeds via the secondary.
	tb.BDNs[0].Close()
	cfg := d.Config()
	cfg.AckTimeout = 300 * time.Millisecond
	cfg.MaxRetransmits = 1
	d2 := tb.NewDiscoverer(simnet.SiteBloomington, "story-client-2", cfg)
	res2, err := d2.Discover()
	if err != nil {
		t.Fatal(err)
	}
	if res2.Via != core.ViaBDN || res2.BDN == res.BDN {
		t.Fatalf("failover did not engage: via=%s bdn=%s", res2.Via, res2.BDN)
	}
}
