// Command liquid-producer is a console producer: it reads lines from
// standard input and publishes them to a topic. A line of the form
// "key<TAB>value" produces a keyed message; otherwise the whole line is the
// value.
//
// Usage:
//
//	echo "hello" | liquid-producer -bootstrap host:port -topic events
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	liquid "repro"
)

func main() {
	bootstrap := flag.String("bootstrap", "127.0.0.1:9092", "comma-separated broker addresses")
	topic := flag.String("topic", "", "topic to produce to")
	acks := flag.Int("acks", 1, "durability: 0 fire-and-forget, 1 leader, -1 all in-sync replicas")
	codecName := flag.String("codec", "none", "batch compression: none or flate")
	flag.Parse()
	if *topic == "" {
		log.Fatal("liquid-producer: -topic is required")
	}
	codec, err := liquid.ParseCodec(*codecName)
	if err != nil {
		log.Fatalf("liquid-producer: %v", err)
	}
	cli, err := liquid.NewClient(liquid.ClientConfig{
		Bootstrap: strings.Split(*bootstrap, ","),
		ClientID:  "liquid-producer",
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cli.Close()

	ackLevel := int16(*acks)
	if *acks == 0 {
		ackLevel = liquid.AcksNone
	}
	producer := liquid.NewProducer(cli, liquid.ProducerConfig{Acks: ackLevel, Codec: codec})
	defer producer.Close()

	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	sent := 0
	for scanner.Scan() {
		line := scanner.Text()
		msg := liquid.Message{Topic: *topic}
		if key, value, found := strings.Cut(line, "\t"); found {
			msg.Key = []byte(key)
			msg.Value = []byte(value)
		} else {
			msg.Value = []byte(line)
		}
		if err := producer.Send(msg); err != nil {
			log.Fatalf("send: %v", err)
		}
		sent++
	}
	if err := scanner.Err(); err != nil {
		log.Fatalf("stdin: %v", err)
	}
	if err := producer.Flush(); err != nil {
		log.Fatalf("flush: %v", err)
	}
	fmt.Fprintf(os.Stderr, "produced %d message(s) to %s\n", sent, *topic)
}
