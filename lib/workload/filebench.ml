type config = {
  working_set_mb : int;
  ops_per_second : float;
  dirty_pages_per_second : float;
}

let default_config = { working_set_mb = 96; ops_per_second = 8000.; dirty_pages_per_second = 2000. }

type result = {
  ops_done : int;
  elapsed : Sim.Time.t;
  ops_per_second : float;
}

(* A representative fileserver op mix: mostly small reads/writes with a
   create+delete pair every few ops. Costs come from the same
   calibration family as the lmbench fs rows. *)
let op_mix =
  [
    Vmm.Cost_model.op ~name:"fb-read" ~cpu:(Sim.Time.us 6.) ~sw_exits:0.5 ~hw_faults_l2:1.5 ();
    Vmm.Cost_model.op ~name:"fb-write" ~cpu:(Sim.Time.us 8.) ~sw_exits:0.8 ~hw_faults_l2:2.0 ();
    Vmm.Cost_model.op ~name:"fb-create" ~cpu:(Sim.Time.us 10.) ~sw_exits:1.0 ~hw_faults_l2:4.0
      ~residual_l1:1.03 ();
    Vmm.Cost_model.op ~name:"fb-delete" ~cpu:(Sim.Time.us 3.6) ~sw_exits:0.5 ~hw_faults_l2:0.3
      ~residual_l1:1.04 ();
  ]

let region env config =
  let total = Memory.Address_space.pages env.Exec_env.ram in
  let length = min total (config.working_set_mb * 1024 * 1024 / Memory.Page.size_bytes) in
  let offset = min (total - length) (total / 2) in
  (offset, length)

let run ?(config = default_config) ?(ops = 100_000) env =
  let offset, length = region env config in
  let started = Sim.Engine.now env.Exec_env.engine in
  let batch = 500 in
  let rec go remaining i =
    if remaining > 0 then begin
      let n = min batch remaining in
      let op = List.nth op_mix (i mod List.length op_mix) in
      ignore (Exec_env.consume env op n);
      Exec_env.dirty_region env ~offset ~length (n / 8);
      (match env.Exec_env.vm with
      | Some vm ->
        let io = Vmm.Vm.io vm in
        io.Vmm.Vm.block_read_ops <- io.Vmm.Vm.block_read_ops + (n / 2);
        io.Vmm.Vm.block_write_ops <- io.Vmm.Vm.block_write_ops + (n / 2);
        Vmm.Vm.disk_write vm ~bytes:(n * 2 * 1024)
      | None -> ());
      go (remaining - n) (i + 1)
    end
  in
  go ops 0;
  let elapsed = Sim.Time.diff (Sim.Engine.now env.Exec_env.engine) started in
  let secs = Sim.Time.to_s elapsed in
  { ops_done = ops; elapsed; ops_per_second = (if secs > 0. then float_of_int ops /. secs else 0.) }

let background ?(config = default_config) () =
  let tick = Sim.Time.ms 50. in
  let carry = ref 0. in
  let rate = ref None in
  {
    Background.name = "filebench";
    tick;
    action =
      (fun env ~tick_index:_ ->
        let dirty_rate =
          match !rate with
          | Some r -> r
          | None ->
            let r =
              config.dirty_pages_per_second
              *. Sim.Rng.lognormal_noise env.Exec_env.rng ~rsd:0.03
            in
            rate := Some r;
            r
        in
        let per_tick = dirty_rate *. Sim.Time.to_s tick in
        let offset, length = region env config in
        carry := !carry +. per_tick;
        let n = int_of_float !carry in
        carry := !carry -. float_of_int n;
        Exec_env.dirty_region env ~offset ~length n;
        match env.Exec_env.vm with
        | Some vm ->
          let io = Vmm.Vm.io vm in
          let ops = int_of_float (config.ops_per_second *. Sim.Time.to_s tick) in
          io.Vmm.Vm.block_read_ops <- io.Vmm.Vm.block_read_ops + (ops / 2);
          io.Vmm.Vm.block_write_ops <- io.Vmm.Vm.block_write_ops + (ops / 2)
        | None -> ());
  }
