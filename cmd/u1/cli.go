package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"u1/internal/client"
	"u1/internal/protocol"
)

// runCLI is `u1 cli`, an interactive desktop client: it connects to a
// `u1 serve` gateway, authenticates with a token, and exposes the storage
// protocol as shell-like commands read from standard input: ls, mkdir NAME,
// put NAME CONTENT, get ID, rm ID, mv ID NAME, volumes, shares, sync,
// udf PATH, share VOL USER, quit.
func runCLI(args []string, stdout io.Writer) error {
	fs := newFlagSet("cli")
	addr := fs.String("addr", "127.0.0.1:7001", "gateway address")
	token := fs.String("token", "", "OAuth token (from u1 serve -issue)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *token == "" {
		return errors.New("a -token is required (start `u1 serve` and copy one)")
	}

	tr, err := client.DialTCP(*addr)
	if err != nil {
		return err
	}
	cli := client.New(tr)
	cli.AutoFetch = false
	if err := cli.Connect(*token); err != nil {
		return fmt.Errorf("connect: %w", err)
	}
	defer cli.Close()
	root, _ := cli.RootVolume()
	fmt.Fprintf(stdout, "connected as %v (session %d), root volume %d\n", cli.User(), cli.Session(), root)

	// Surface pushes as they arrive.
	go func() {
		for p := range cli.Pushes() {
			fmt.Fprintf(stdout, "\n[push] %v volume=%d gen=%d\n> ", p.Event, p.Volume, p.Generation)
		}
	}()

	sc := bufio.NewScanner(os.Stdin)
	fmt.Fprint(stdout, "> ")
	for sc.Scan() {
		line := strings.Fields(sc.Text())
		if len(line) == 0 {
			fmt.Fprint(stdout, "> ")
			continue
		}
		if err := cliCommand(stdout, cli, root, line); err != nil {
			fmt.Fprintln(stdout, "error:", err)
		}
		if line[0] == "quit" {
			return nil
		}
		fmt.Fprint(stdout, "> ")
	}
	return sc.Err()
}

func cliCommand(w io.Writer, cli *client.Client, root protocol.VolumeID, args []string) error {
	switch args[0] {
	case "ls":
		if !cli.EachNode(root, func(id protocol.NodeID, n client.Node) {
			fmt.Fprintf(w, "  %6d %-4s %8d %s\n", id, n.Kind, n.Size, n.Name)
		}) {
			return fmt.Errorf("no mirror")
		}
	case "mkdir":
		if len(args) < 2 {
			return fmt.Errorf("mkdir NAME")
		}
		n, err := cli.Mkdir(root, 0, args[1])
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  dir %d created\n", n.ID)
	case "put":
		if len(args) < 3 {
			return fmt.Errorf("put NAME CONTENT...")
		}
		content := []byte(strings.Join(args[2:], " "))
		n, reused, err := cli.Upload(root, 0, args[1], content)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  node %d stored (%d bytes, dedup=%v)\n", n.ID, len(content), reused)
	case "get":
		id, err := nodeArg(args)
		if err != nil {
			return err
		}
		data, err := cli.Download(root, id)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %q\n", data)
	case "rm":
		id, err := nodeArg(args)
		if err != nil {
			return err
		}
		return cli.Unlink(root, id)
	case "mv":
		if len(args) < 3 {
			return fmt.Errorf("mv ID NEWNAME")
		}
		id, err := strconv.ParseUint(args[1], 10, 64)
		if err != nil {
			return err
		}
		_, err = cli.Move(root, protocol.NodeID(id), 0, args[2])
		return err
	case "volumes":
		vols, err := cli.ListVolumes()
		if err != nil {
			return err
		}
		for _, v := range vols {
			fmt.Fprintf(w, "  %6d %-6s gen=%d %s\n", v.ID, v.Type, v.Generation, v.Path)
		}
	case "shares":
		shares, err := cli.ListShares()
		if err != nil {
			return err
		}
		for _, s := range shares {
			fmt.Fprintf(w, "  %6d vol=%d by=%v to=%v accepted=%v %q\n",
				s.ID, s.Volume, s.SharedBy, s.SharedTo, s.Accepted, s.Name)
		}
	case "sync":
		changed, err := cli.Sync(root)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %d files changed\n", len(changed))
	case "udf":
		if len(args) < 2 {
			return fmt.Errorf("udf PATH")
		}
		v, err := cli.CreateUDF(args[1])
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  volume %d created at %s\n", v.ID, v.Path)
	case "share":
		if len(args) < 3 {
			return fmt.Errorf("share VOLID USERID")
		}
		vol, err := strconv.ParseUint(args[1], 10, 64)
		if err != nil {
			return err
		}
		to, err := strconv.ParseUint(args[2], 10, 64)
		if err != nil {
			return err
		}
		s, err := cli.CreateShare(protocol.VolumeID(vol), protocol.UserID(to), "cli-share", false)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  share %d offered to %v\n", s.ID, s.SharedTo)
	case "quit":
	default:
		fmt.Fprintln(w, "  commands: ls mkdir put get rm mv volumes shares sync udf share quit")
	}
	return nil
}

func nodeArg(args []string) (protocol.NodeID, error) {
	if len(args) < 2 {
		return 0, fmt.Errorf("%s ID", args[0])
	}
	id, err := strconv.ParseUint(args[1], 10, 64)
	if err != nil {
		return 0, err
	}
	return protocol.NodeID(id), nil
}
