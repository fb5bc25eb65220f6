(* Quickstart: build a cloud host, rent a VM on it, nest a VM inside a
   VM, and watch L0's memory deduplication see straight through the
   nesting - the two primitives everything else in this library builds
   on.

   Run with: dune exec examples/quickstart.exe *)

let () =
  (* Every experiment owns one context: an engine (all time below is
     simulated virtual time, deterministic per seed) and an optional
     telemetry sink (metrics and the journal), bundled as a Sim.Ctx and
     threaded down. *)
  let ctx = Sim.Ctx.create ~seed:1 () in
  let engine = Sim.Ctx.engine ctx in

  (* A physical host: 16 GB of RAM, an L0 QEMU/KVM hypervisor, a ksmd
     thread, and a gateway on an external network. *)
  let uplink = Net.Fabric.Switch.create ctx ~name:"uplink" ~link:Net.Link.lan_1gbe in
  let host = Vmm.Hypervisor.create_l0 ctx ~name:"host" ~uplink ~addr:"192.168.1.100" in

  (* Launch a guest the way a cloud customer gets one: 1 GB of RAM,
     virtio devices, SSH published on host port 2222. *)
  let config =
    Vmm.Qemu_config.with_hostfwd (Vmm.Qemu_config.default ~name:"guest0") [ (2222, 22) ]
  in
  let guest0 =
    match Vmm.Hypervisor.launch host config with Ok vm -> vm | Error e -> failwith e
  in
  Printf.printf "launched %s: level=%s pid=%d addr=%s\n" (Vmm.Vm.name guest0)
    (Vmm.Level.to_string (Vmm.Vm.level guest0))
    (Vmm.Vm.qemu_pid guest0) (Vmm.Vm.addr guest0);

  (* Talk to its QEMU monitor, exactly the interface the paper's
     attacker uses for reconnaissance. *)
  print_endline (Vmm.Monitor.execute_exn guest0 "info status");
  print_endline (Vmm.Monitor.execute_exn guest0 "info qtree");

  (* Nested virtualization: a guest with +vmx can run its own
     hypervisor, and VMs under it run at L2. *)
  let guestx_config =
    Vmm.Qemu_config.with_nested_vmx
      { (Vmm.Qemu_config.default ~name:"guestx") with Vmm.Qemu_config.memory_mb = 2048;
        monitor_port = 5556 }
      true
  in
  let guestx =
    match Vmm.Hypervisor.launch host guestx_config with Ok vm -> vm | Error e -> failwith e
  in
  let nested_hv =
    match Vmm.Hypervisor.create_nested ctx ~vm:guestx ~name:"guestx-kvm" with
    | Ok hv -> hv
    | Error e -> failwith e
  in
  let l2 =
    match Vmm.Hypervisor.launch nested_hv (Vmm.Qemu_config.default ~name:"nested") with
    | Ok vm -> vm
    | Error e -> failwith e
  in
  Printf.printf "\nnested VM %s runs at %s; its RAM is a window into %s's RAM\n"
    (Vmm.Vm.name l2)
    (Vmm.Level.to_string (Vmm.Vm.level l2))
    (Vmm.Vm.name guestx);

  (* The key memory fact: load the same file at L2 and in the host, let
     ksmd run, and the two copies merge - nesting hides nothing from
     L0's view of physical memory. *)
  let rng = Sim.Ctx.fork_rng ctx in
  let file = Memory.File_image.generate rng ~name:"file-a" ~pages:100 in
  (match Vmm.Vm.load_file l2 file with Ok _ -> () | Error e -> failwith e);
  let buffer =
    match Vmm.Hypervisor.host_buffer host ~name:"host-copy" ~pages:100 with
    | Ok b -> b
    | Error e -> failwith e
  in
  Memory.File_image.load_into file buffer ~offset:0;

  let ksm = Option.get (Vmm.Hypervisor.ksm host) in
  let wait = Sim.Time.mul (Memory.Ksm.time_for_full_pass ksm) 2.5 in
  Printf.printf "waiting %s of virtual time for ksmd...\n" (Sim.Time.to_string wait);
  ignore (Sim.Engine.run_for engine wait);

  Printf.printf "ksmd merged %d pages; host buffer now has %d/100 pages shared\n"
    (Memory.Ksm.pages_merged ksm)
    (Memory.Address_space.shared_page_count buffer);

  (* Writes to merged pages are slow (copy-on-write) - the timing side
     channel CloudSkulk detection is built on. *)
  let probe = Memory.Write_probe.probe ~rng buffer ~offset:0 ~pages:100 in
  Printf.printf "write probe: %d of 100 pages took a CoW fault (mean %s per write)\n"
    probe.Memory.Write_probe.cow_breaks
    (Sim.Time.to_string (Memory.Write_probe.mean_cost probe));
  Printf.printf "\nquickstart done at virtual time %s\n"
    (Sim.Time.to_string (Sim.Engine.now engine))
