(* The benchmark's own span recorder. Spans are taken around the
   benchmark's calls into each layer's public functions, kept in
   memory (behind a mutex: the fleet re-drive records from every shard
   domain) and written out once the run is over. A span's [op] is the
   operation it belongs to, so all spans of one detector run or one
   migration share an identifier. The summaries below work on the span
   list, which is what a round's process hands back to the run. *)

type span = {
  id : int;
  parent : int;  (** [-1] for a root span *)
  name : string;
  op : int;
  start_ns : int64;
  stop_ns : int64;
}

type t = { lock : Mutex.t; mutable next : int; mutable spans : span list }

let create () = { lock = Mutex.create (); next = 0; spans = [] }

let fresh_id t =
  Mutex.protect t.lock (fun () ->
      let id = t.next in
      t.next <- id + 1;
      id)

(* [span t ~parent ~op name f] runs [f id], where [id] names this span
   as the parent of spans [f] opens, and records the interval when [f]
   returns. Without a tracer it is [f (-1)]. *)
let span t ?(parent = -1) ~op name f =
  match t with
  | None -> f (-1)
  | Some t ->
    let id = fresh_id t in
    let start_ns = Clock.now_ns () in
    let r = f id in
    let s = { id; parent; name; op; start_ns; stop_ns = Clock.now_ns () } in
    Mutex.protect t.lock (fun () -> t.spans <- s :: t.spans);
    r

let spans t = List.rev t.spans

let dur s = Int64.to_float (Int64.sub s.stop_ns s.start_ns) *. 1e-9

let total spans name =
  List.fold_left (fun acc s -> if s.name = name then acc +. dur s else acc) 0. spans

(* Length of the union of [ivs], clipped to [lo, hi]: children that ran
   concurrently on several domains are not counted twice. *)
let covered ~lo ~hi ivs =
  let ivs =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if b > a then Some (a, b) else None)
      ivs
    |> List.sort compare
  in
  let rec go acc cur = function
    | [] -> (match cur with None -> acc | Some (a, b) -> acc +. (b -. a))
    | (a, b) :: rest -> (
      match cur with
      | None -> go acc (Some (a, b)) rest
      | Some (ca, cb) when a <= cb -> go acc (Some (ca, max cb b)) rest
      | Some (ca, cb) -> go (acc +. (cb -. ca)) (Some (a, b)) rest)
  in
  go 0. None ivs

(* Self time per span name: each span's duration minus the part of it
   its children cover, summed by name, in first-seen order. *)
let self_times spans =
  let ns x = Int64.to_float x *. 1e-9 in
  let children = Hashtbl.create 64 in
  List.iter
    (fun s -> Hashtbl.add children s.parent (ns s.start_ns, ns s.stop_ns))
    spans;
  let acc = Hashtbl.create 16 and order = ref [] in
  List.iter
    (fun s ->
      let lo = ns s.start_ns and hi = ns s.stop_ns in
      let self = hi -. lo -. covered ~lo ~hi (Hashtbl.find_all children s.id) in
      if not (Hashtbl.mem acc s.name) then order := s.name :: !order;
      Hashtbl.replace acc s.name
        (self +. Option.value ~default:0. (Hashtbl.find_opt acc s.name)))
    spans;
  List.rev_map (fun n -> (n, Hashtbl.find acc n)) !order

let write_jsonl spans path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"parent\":%d,\"name\":%S,\"op\":%d,\"start_ns\":%Ld,\"end_ns\":%Ld}\n"
            s.id s.parent s.name s.op s.start_ns s.stop_ns)
        spans)
