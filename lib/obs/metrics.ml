type counter = int Atomic.t

type gauge = float Atomic.t

(* 63 power-of-two buckets cover every non-negative int sample. *)
let nbuckets = 63

type histogram = {
  h_buckets : int Atomic.t array;
  h_sum : int Atomic.t;
  h_max : int Atomic.t;
}

type instrument =
  | C of counter
  | G of gauge
  | H of histogram
  | I of string Atomic.t

let on = Atomic.make false

let enabled () = Atomic.get on
let enable () = Atomic.set on true
let disable () = Atomic.set on false

let registry : (string, instrument) Hashtbl.t Locked.t =
  Locked.create (Hashtbl.create 64)

let register name make describe =
  let i =
    Locked.use registry (fun reg ->
        match Hashtbl.find_opt reg name with
        | Some existing -> existing
        | None ->
          let i = make () in
          Hashtbl.add reg name i;
          i)
  in
  match describe i with
  | Some v -> v
  | None ->
    invalid_arg
      (Printf.sprintf "Obs.Metrics: %s already registered with another kind"
         name)

let counter name =
  register name
    (fun () -> C (Atomic.make 0))
    (function C c -> Some c | G _ | H _ | I _ -> None)

let add c n = if Atomic.get on then ignore (Atomic.fetch_and_add c n)
let incr c = add c 1
let counter_value c = Atomic.get c

let gauge name =
  register name
    (fun () -> G (Atomic.make 0.0))
    (function G g -> Some g | C _ | H _ | I _ -> None)

let set_gauge g v = if Atomic.get on then Atomic.set g v
let gauge_value g = Atomic.get g

let histogram name =
  register name
    (fun () ->
      H
        { h_buckets = Array.init nbuckets (fun _ -> Atomic.make 0);
          h_sum = Atomic.make 0;
          h_max = Atomic.make 0 })
    (function H h -> Some h | C _ | G _ | I _ -> None)

let bucket_of v =
  if v <= 1 then 0
  else begin
    let i = ref 0 and x = ref v in
    while !x > 1 do
      x := !x lsr 1;
      Stdlib.incr i
    done;
    !i
  end

let rec raise_max cell v =
  let cur = Atomic.get cell in
  if v > cur && not (Atomic.compare_and_set cell cur v) then raise_max cell v

let observe h v =
  if Atomic.get on then begin
    let v = max v 0 in
    ignore (Atomic.fetch_and_add h.h_buckets.(bucket_of v) 1);
    ignore (Atomic.fetch_and_add h.h_sum v);
    raise_max h.h_max v
  end

let set_info name text =
  let i =
    register name
      (fun () -> I (Atomic.make ""))
      (function I i -> Some i | C _ | G _ | H _ -> None)
  in
  Atomic.set i text

type histogram_snapshot = {
  count : int;
  sum : int;
  max_value : int;
  buckets : (int * int) list;
}

let bucket_floor i = if i = 0 then 0 else 1 lsl i

let histogram_stats h =
  let count = ref 0 and buckets = ref [] in
  for i = nbuckets - 1 downto 0 do
    let n = Atomic.get h.h_buckets.(i) in
    if n > 0 then begin
      count := !count + n;
      buckets := (bucket_floor i, n) :: !buckets
    end
  done;
  { count = !count;
    sum = Atomic.get h.h_sum;
    max_value = Atomic.get h.h_max;
    buckets = !buckets }

type value =
  | Counter of int
  | Gauge of float
  | Histogram of histogram_snapshot
  | Info of string

let dump () =
  Locked.use registry (fun reg ->
      (* lint-waive: nondet/hashtbl-order — sorted by name before return. *)
      Hashtbl.fold (fun name i acc -> (name, i) :: acc) reg [])
  |> List.map (fun (name, i) ->
         let v =
           match i with
           | C c -> Counter (Atomic.get c)
           | G g -> Gauge (Atomic.get g)
           | H h -> Histogram (histogram_stats h)
           | I i -> Info (Atomic.get i)
         in
         (name, v))
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* --- labeled snapshots -------------------------------------------------------------- *)

(* A snapshot is just a dump; [delta] subtracts it from the current dump so
   per-request accounting in the serving daemon never needs a global
   [reset] (which would race with concurrent requests). *)
type snapshot = (string * value) list

let snapshot () = dump ()

let sub_histogram (cur : histogram_snapshot) (old : histogram_snapshot) =
  let old_buckets = old.buckets in
  let bucket_delta =
    List.filter_map
      (fun (floor, n) ->
        let o = try List.assoc floor old_buckets with Not_found -> 0 in
        if n - o > 0 then Some (floor, n - o) else None)
      cur.buckets
  in
  { count = cur.count - old.count;
    sum = cur.sum - old.sum;
    (* max is not invertible: report the current max when new samples
       arrived, 0 otherwise *)
    max_value = (if cur.count > old.count then cur.max_value else 0);
    buckets = bucket_delta }

let delta (snap : snapshot) =
  let old : (string, value) Hashtbl.t = Hashtbl.create 64 in
  List.iter (fun (name, v) -> Hashtbl.replace old name v) snap;
  List.filter_map
    (fun (name, v) ->
      match (v, Hashtbl.find_opt old name) with
      | Counter n, Some (Counter o) ->
        if n <> o then Some (name, Counter (n - o)) else None
      | Counter n, None -> if n <> 0 then Some (name, Counter n) else None
      | Gauge g, Some (Gauge o) ->
        if g <> o then Some (name, Gauge g) else None
      | Gauge g, None -> if g <> 0.0 then Some (name, Gauge g) else None
      | Histogram h, Some (Histogram o) ->
        if h.count <> o.count then Some (name, Histogram (sub_histogram h o))
        else None
      | Histogram h, None ->
        if h.count <> 0 then Some (name, Histogram h) else None
      | Info s, Some (Info o) -> if s <> o then Some (name, Info s) else None
      | Info s, None -> if s <> "" then Some (name, Info s) else None
      (* an instrument re-registered with a different kind is impossible
         ([register] raises), but stay total *)
      | v, Some _ -> Some (name, v))
    (dump ())

let reset () =
  Locked.use registry (fun reg ->
      (* lint-waive: nondet/hashtbl-order — zeroing every instrument commutes. *)
      Hashtbl.iter
        (fun _ i ->
          match i with
          | C c -> Atomic.set c 0
          | G g -> Atomic.set g 0.0
          | H h ->
            Array.iter (fun b -> Atomic.set b 0) h.h_buckets;
            Atomic.set h.h_sum 0;
            Atomic.set h.h_max 0
          | I i -> Atomic.set i "")
        reg)
