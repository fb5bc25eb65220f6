(* Binary min-heap keyed by [(time, seq)], where [seq] is the push
   order, so same-timestamp events fire FIFO.

   Cancellation is lazy: a cancelled entry stays in the heap and is
   discarded when it reaches the top. [pending] tracks ids that are in the
   heap and not cancelled, so [size] stays accurate and cancelling an
   already-fired event is a true no-op.

   Slots [0, len) hold entries and every slot past [len] is [Empty], so
   the array never keeps a popped payload reachable. [Empty] is an
   immediate and [Entry] one block, the same cost as a plain record. *)
type handle = int

type 'a slot =
  | Empty
  | Entry of {
      time : Time.t;
      seq : int;
      id : handle;
      payload : 'a;
    }

type 'a t = {
  mutable heap : 'a slot array;
  mutable len : int;
  mutable next_seq : int;
  mutable next_id : handle;
  pending : (handle, unit) Hashtbl.t;
}

let create () =
  {
    heap = [||];
    len = 0;
    next_seq = 0;
    next_id = 0;
    pending = Hashtbl.create 64;
  }

let is_empty t = Hashtbl.length t.pending = 0
let size t = Hashtbl.length t.pending

let before a b =
  match (a, b) with
  | Entry a, Entry b -> (
    match Time.compare a.time b.time with
    | 0 -> a.seq < b.seq
    | c -> c < 0)
  | Empty, _ | _, Empty -> assert false

let swap t i j =
  let tmp = t.heap.(i) in
  t.heap.(i) <- t.heap.(j);
  t.heap.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before t.heap.(i) t.heap.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.len && before t.heap.(l) t.heap.(!smallest) then smallest := l;
  if r < t.len && before t.heap.(r) t.heap.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let grow t =
  let cap = Array.length t.heap in
  let new_heap = Array.make (if cap = 0 then 16 else 2 * cap) Empty in
  Array.blit t.heap 0 new_heap 0 t.len;
  t.heap <- new_heap

let push t time payload =
  let id = t.next_id in
  t.next_id <- id + 1;
  if t.len = Array.length t.heap then grow t;
  t.heap.(t.len) <- Entry { time; seq = t.next_seq; id; payload };
  t.next_seq <- t.next_seq + 1;
  t.len <- t.len + 1;
  sift_up t (t.len - 1);
  Hashtbl.add t.pending id ();
  id

let cancelled t id = not (Hashtbl.mem t.pending id)
let cancel t id = Hashtbl.remove t.pending id

let pop_top t =
  let top = t.heap.(0) in
  t.len <- t.len - 1;
  t.heap.(0) <- t.heap.(t.len);
  t.heap.(t.len) <- Empty;
  if t.len > 0 then sift_down t 0;
  top

let rec discard_cancelled t =
  if t.len > 0 then
    match t.heap.(0) with
    | Entry e when not (Hashtbl.mem t.pending e.id) ->
      let _ = pop_top t in
      discard_cancelled t
    | Entry _ | Empty -> ()

let peek_time t =
  discard_cancelled t;
  if t.len = 0 then None
  else match t.heap.(0) with Entry e -> Some e.time | Empty -> assert false

let pop t =
  discard_cancelled t;
  if t.len = 0 then None
  else
    match pop_top t with
    | Entry e ->
      Hashtbl.remove t.pending e.id;
      Some (e.time, e.payload)
    | Empty -> assert false
