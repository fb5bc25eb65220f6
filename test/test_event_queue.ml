(* Model-based tests for the event queue (Sim.Event_queue): random and
   seeded push/cancel/pop/peek interleavings are checked against a
   sorted-list model of its contract - (time, seq) order, FIFO on equal
   timestamps, cancelling a fired or cancelled handle is a no-op - plus
   directed cases and payload-release checks. *)

(* ---- operations ---- *)

type op =
  | Push of int  (* timestamp in ns *)
  | Cancel of int  (* index into the list of all pushed handles *)
  | Pop
  | Peek

(* The sorted-list model: (time_ns, seq) kept in pop order. *)
let model_insert (t, s) l =
  let rec go = function
    | [] -> [ (t, s) ]
    | (t', s') :: _ as l when t < t' || (t = t' && s < s') -> (t, s) :: l
    | x :: rest -> x :: go rest
  in
  go l

(* Run the op list against the queue and the model simultaneously,
   checking every observation. Returns unit or fails the test. *)
let check_against_model ops =
  let q = Sim.Event_queue.create () in
  let model = ref [] in
  let seq = ref 0 in
  let pushed = ref [] (* newest first: (seq, handle) - includes fired ones *) in
  let fail fmt = Printf.ksprintf (fun m -> Alcotest.fail m) fmt in
  List.iter
    (fun op ->
      match op with
      | Push tns ->
        let h = Sim.Event_queue.push q (Sim.Time.ns tns) !seq in
        model := model_insert (tns, !seq) !model;
        pushed := (!seq, h) :: !pushed;
        incr seq
      | Cancel k -> (
        match !pushed with
        | [] -> ()
        | l ->
          (* may pick an already-fired or already-cancelled handle: both
             must be no-ops on the queue and leave the model unchanged *)
          let s, h = List.nth l (k mod List.length l) in
          Sim.Event_queue.cancel q h;
          model := List.filter (fun (_, s') -> s' <> s) !model)
      | Pop -> (
        match (Sim.Event_queue.pop q, !model) with
        | None, [] -> ()
        | Some (t, v), (tm, sm) :: rest ->
          if Sim.Time.to_ns t <> Int64.of_int tm || v <> sm then
            fail "pop mismatch: queue (%Ld,%d) model (%d,%d)" (Sim.Time.to_ns t) v tm sm;
          model := rest
        | None, (tm, sm) :: _ -> fail "queue empty, model has (%d,%d)" tm sm
        | Some (t, v), [] -> fail "queue has (%Ld,%d), model empty" (Sim.Time.to_ns t) v)
      | Peek -> (
        if Sim.Event_queue.size q <> List.length !model then
          fail "size mismatch: queue %d model %d" (Sim.Event_queue.size q) (List.length !model);
        match (Sim.Event_queue.peek_time q, !model) with
        | None, [] -> ()
        | Some t, (tm, _) :: _ ->
          if Sim.Time.to_ns t <> Int64.of_int tm then
            fail "peek mismatch: queue %Ld model %d" (Sim.Time.to_ns t) tm
        | None, (tm, _) :: _ -> fail "peek: queue empty, model head %d" tm
        | Some t, [] -> fail "peek: queue %Ld, model empty" (Sim.Time.to_ns t)))
    ops;
  if Sim.Event_queue.size q <> List.length !model then
    fail "size mismatch: queue %d model %d" (Sim.Event_queue.size q) (List.length !model);
  (* drain what is left and compare the tail order *)
  let rec drain () =
    match (Sim.Event_queue.pop q, !model) with
    | None, [] -> ()
    | Some (t, v), (tm, sm) :: rest ->
      if Sim.Time.to_ns t <> Int64.of_int tm || v <> sm then
        fail "drain mismatch: queue (%Ld,%d) model (%d,%d)" (Sim.Time.to_ns t) v tm sm;
      model := rest;
      drain ()
    | None, (tm, _) :: _ -> fail "drain: queue dry with model head %d" tm
    | Some (t, _), [] -> fail "drain: queue overfull at %Ld" (Sim.Time.to_ns t)
  in
  drain ()

(* ---- generators ---- *)

(* Timestamps mix heavy same-instant ties (under 256 ns), sub-ms and
   multi-minute spreads, and far-future events beyond 2^46 ns (~19.5 h). *)
let time_gen =
  QCheck.Gen.frequency
    [
      (3, QCheck.Gen.int_bound 255);
      (4, QCheck.Gen.int_bound 1_000_000);
      (2, QCheck.Gen.map (fun x -> x * 1_000_003) (QCheck.Gen.int_bound 1_000_000));
      (1, QCheck.Gen.map (fun x -> 100_000_000_000_000 + x) (QCheck.Gen.int_bound 1_000_000));
    ]

let op_gen =
  QCheck.Gen.frequency
    [
      (6, QCheck.Gen.map (fun t -> Push t) time_gen);
      (2, QCheck.Gen.map (fun k -> Cancel k) QCheck.Gen.small_nat);
      (4, QCheck.Gen.return Pop);
      (2, QCheck.Gen.return Peek);
    ]

let print_op = function
  | Push t -> Printf.sprintf "Push %d" t
  | Cancel k -> Printf.sprintf "Cancel %d" k
  | Pop -> "Pop"
  | Peek -> "Peek"

let ops_arbitrary =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map print_op ops))
    (QCheck.Gen.list_size (QCheck.Gen.int_range 0 400) op_gen)

let model_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"queue matches sorted-list model" ~count:300 ops_arbitrary
         (fun ops ->
           check_against_model ops;
           true));
  ]

(* ---- seeded op streams ---- *)

(* Deterministic op streams from a seeded RNG, so failures reproduce
   by seed. The mix is 45% push, 15% cancel of any handle pushed so far
   (fired and cancelled ones included), 30% pop and 10% peek, with one
   push in ten beyond 2^46 ns. *)
let seeded_ops ~seed ~ops:n_ops =
  let r = Sim.Rng.create seed in
  let pushes = ref 0 in
  let ops = ref [] in
  for _ = 1 to n_ops do
    match Sim.Rng.int r 100 with
    | c when c < 45 ->
      let tns =
        match Sim.Rng.int r 10 with
        | 0 -> 100_000_000_000_000 + Sim.Rng.int r 1_000_000
        | 1 | 2 -> Sim.Rng.int r 256
        | 3 | 4 | 5 -> Sim.Rng.int r 1_000_000
        | _ -> Sim.Rng.int r 1_000_000 * 1_000_003
      in
      incr pushes;
      ops := Push tns :: !ops
    | c when c < 60 -> if !pushes > 0 then ops := Cancel (Sim.Rng.int r !pushes) :: !ops
    | c when c < 90 -> ops := Pop :: !ops
    | _ -> ops := Peek :: !ops
  done;
  List.rev !ops

let seeded_tests =
  [
    Alcotest.test_case "matches model on 50 seeded streams" `Quick (fun () ->
        for seed = 0 to 49 do
          check_against_model (seeded_ops ~seed ~ops:500)
        done);
    Alcotest.test_case "matches model on long streams" `Quick (fun () ->
        for seed = 20 to 29 do
          check_against_model (seeded_ops ~seed ~ops:2000)
        done);
  ]

(* ---- directed semantics tests ---- *)

let semantics_tests =
  let open Sim.Event_queue in
  [
    Alcotest.test_case "same-timestamp events pop in push order" `Quick (fun () ->
        let q = create () in
        let t = Sim.Time.ms 1. in
        for i = 0 to 99 do
          ignore (push q t i)
        done;
        for i = 0 to 99 do
          match pop q with
          | Some (t', v) ->
            Alcotest.(check int64) "time" (Sim.Time.to_ns t) (Sim.Time.to_ns t');
            Alcotest.(check int) "FIFO" i v
          | None -> Alcotest.fail "queue dry"
        done);
    Alcotest.test_case "far-future events take the overflow path and return" `Quick (fun () ->
        let q = create () in
        (* > 2^46 ns: far-future events must wait until everything
           nearer has drained *)
        let far = Sim.Time.ns 200_000_000_000_000 in
        let farther = Sim.Time.ns 200_000_000_001_000 in
        let h_far = push q far 1 in
        ignore (push q farther 2);
        ignore (push q (Sim.Time.ms 1.) 0);
        Alcotest.(check int) "three live" 3 (size q);
        Alcotest.(check (option int)) "near first" (Some 0) (Option.map snd (pop q));
        cancel q h_far;
        Alcotest.(check (option int)) "overflow survivor" (Some 2) (Option.map snd (pop q));
        Alcotest.(check bool) "drained" true (pop q = None));
    Alcotest.test_case "re-armed slot after harvest does not stall" `Quick (fun () ->
        (* pop an event, then push new ones 256 and 256^2 steps of
           64 ns after it and one step after it; each pop must
           terminate and preserve order *)
        let q = create () in
        let tick n = Sim.Time.ns (64 * n) in
        ignore (push q (tick 7935) 0);
        Alcotest.(check (option int)) "first" (Some 0) (Option.map snd (pop q));
        ignore (push q (tick 8191) 1);
        ignore (push q (tick (7935 + 256 * 256)) 2);
        ignore (push q (tick 7936) 3);
        Alcotest.(check (option int)) "nearest" (Some 3) (Option.map snd (pop q));
        Alcotest.(check (option int)) "same slot next turn" (Some 1) (Option.map snd (pop q));
        Alcotest.(check (option int)) "level above" (Some 2) (Option.map snd (pop q)));
    Alcotest.test_case "cancelled handle reports cancelled; fired too" `Quick (fun () ->
        let q = create () in
        let a = push q (Sim.Time.ms 1.) "a" in
        let b = push q (Sim.Time.ms 2.) "b" in
        Alcotest.(check bool) "a pending" false (cancelled q a);
        cancel q a;
        Alcotest.(check bool) "a cancelled" true (cancelled q a);
        Alcotest.(check (option string)) "b pops" (Some "b") (Option.map snd (pop q));
        Alcotest.(check bool) "b fired = cancelled" true (cancelled q b);
        cancel q b;
        (* no-op *)
        Alcotest.(check int) "empty" 0 (size q));
    Alcotest.test_case "cancel is O(1) bookkeeping: size tracks live events" `Quick (fun () ->
        let q = create () in
        let hs = List.init 64 (fun i -> push q (Sim.Time.us (float_of_int i)) i) in
        List.iteri (fun i h -> if i mod 2 = 0 then cancel q h) hs;
        Alcotest.(check int) "half live" 32 (size q);
        let rec drain acc = match pop q with None -> List.rev acc | Some (_, v) -> drain (v :: acc) in
        Alcotest.(check (list int)) "odd payloads in order" (List.init 32 (fun i -> (2 * i) + 1))
          (drain []));
  ]

(* ---- payload release (GC) ---- *)

(* Payload release: no slot past the heap's live length may reference
   an entry, so a popped payload is collectable whether the queue was
   drained or still holds events. *)
let gc_tests =
  let weak_of v =
    let w = Weak.create 1 in
    Weak.set w 0 (Some v);
    w
  in
  let gone w =
    Gc.full_major ();
    Gc.full_major ();
    Weak.get w 0 = None
  in
  [
    Alcotest.test_case "queue releases payloads after drain" `Quick (fun () ->
        let q = Sim.Event_queue.create () in
        let p = ref (Bytes.create 64) in
        let w = weak_of !p in
        ignore (Sim.Event_queue.push q (Sim.Time.ms 1.) !p);
        ignore (Sim.Event_queue.push q (Sim.Time.ms 2.) (Bytes.create 8));
        p := Bytes.create 0;
        ignore (Sim.Event_queue.pop q);
        ignore (Sim.Event_queue.pop q);
        Alcotest.(check bool) "payload collectable" true (gone w));
    Alcotest.test_case "heap releases a popped payload while others remain" `Quick (fun () ->
        let q = Sim.Event_queue.create () in
        let p = ref (Bytes.create 64) in
        let w = weak_of !p in
        ignore (Sim.Event_queue.push q (Sim.Time.ms 1.) !p);
        for i = 2 to 4 do
          ignore (Sim.Event_queue.push q (Sim.Time.ms (float_of_int i)) (Bytes.create 8))
        done;
        p := Bytes.create 0;
        ignore (Sim.Event_queue.pop q);
        (* three events still queued: the vacated tail slot must not pin
           the popped payload *)
        Alcotest.(check bool) "payload collectable" true (gone w);
        Alcotest.(check int) "three events left" 3 (Sim.Event_queue.size q));
    Alcotest.test_case "heap releases everything when drained" `Quick (fun () ->
        let q = Sim.Event_queue.create () in
        let p = ref (Bytes.create 64) in
        let w = weak_of !p in
        ignore (Sim.Event_queue.push q (Sim.Time.ms 1.) !p);
        p := Bytes.create 0;
        ignore (Sim.Event_queue.pop q);
        Alcotest.(check bool) "payload collectable" true (gone w));
    Alcotest.test_case "heap releases payloads popped before the last one" `Quick (fun () ->
        (* push 1-4 ms and pop three times: the sift-downs move the 2 ms
           and 3 ms entries into slots past the live length, where they
           must not stay reachable *)
        let q = Sim.Event_queue.create () in
        let p = ref (Bytes.create 64) in
        let w = weak_of !p in
        ignore (Sim.Event_queue.push q (Sim.Time.ms 1.) (Bytes.create 8));
        ignore (Sim.Event_queue.push q (Sim.Time.ms 2.) (Bytes.create 8));
        ignore (Sim.Event_queue.push q (Sim.Time.ms 3.) !p);
        ignore (Sim.Event_queue.push q (Sim.Time.ms 4.) (Bytes.create 8));
        p := Bytes.create 0;
        for _ = 1 to 3 do
          ignore (Sim.Event_queue.pop q)
        done;
        Alcotest.(check bool) "3 ms payload collectable" true (gone w);
        (* reading [q] after the collection keeps the queue itself alive
           through it *)
        Alcotest.(check int) "one event left" 1 (Sim.Event_queue.size q));
  ]

let () =
  Alcotest.run "event_queue"
    [
      ("model", model_props);
      ("seeded-model", seeded_tests);
      ("semantics", semantics_tests);
      ("gc", gc_tests);
    ]
