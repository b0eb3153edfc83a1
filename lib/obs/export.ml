(* The JSON exporters build [Json.t] values; the caller picks the compact
   wire form or the file layout. *)

let attr_value = function
  | Trace.Str s -> Json.Str s
  | Trace.Int i -> Json.Int i
  | Trace.Float f -> Json.Float f
  | Trace.Bool b -> Json.Bool b

let attrs args = List.map (fun (k, v) -> (k, attr_value v)) args

let gc_words (s : Trace.span) =
  [ ("gc_minor_words", Json.Int (int_of_float s.Trace.minor_words));
    ("gc_major_words", Json.Int (int_of_float s.Trace.major_words)) ]

(* --- machine JSON ------------------------------------------------------------ *)

let metric_value = function
  | Metrics.Counter n -> Json.Int n
  | Metrics.Gauge g -> Json.Float g
  | Metrics.Info s -> Json.Str s
  | Metrics.Histogram h ->
    Json.Obj
      [ ("count", Json.Int h.Metrics.count);
        ("sum", Json.Int h.Metrics.sum);
        ("max", Json.Int h.Metrics.max_value);
        ( "buckets",
          Json.Obj
            (List.map
               (fun (floor, n) -> (string_of_int floor, Json.Int n))
               h.Metrics.buckets) ) ]

let metrics_json ?(prefix = "") () =
  Json.Obj
    [ ( "metrics",
        Json.Obj
          (List.filter_map
             (fun (name, v) ->
               if String.starts_with ~prefix name then
                 Some (name, metric_value v)
               else None)
             (Metrics.dump ())) ) ]

let span_json (s : Trace.span) =
  Json.Obj
    ([ ("name", Json.Str s.Trace.name);
       ("cat", Json.Str s.Trace.cat);
       ("track", Json.Int s.Trace.track);
       ("depth", Json.Int s.Trace.depth);
       ("start_ns", Json.Int (Int64.to_int s.Trace.start_ns));
       ("dur_ns", Json.Int (Int64.to_int s.Trace.dur_ns)) ]
    @ gc_words s
    @
    if s.Trace.args = [] then []
    else [ ("args", Json.Obj (attrs s.Trace.args)) ])

let spans_json () = Json.List (List.map span_json (Trace.spans ()))

(* --- Prometheus exposition text ------------------------------------------------ *)

(* The live "/metrics"-style endpoint of the resynthesis daemon serves this:
   one exposition-format block per instrument, with registry dots mapped to
   underscores (Prometheus metric names admit [a-zA-Z0-9_:] only).  Infos
   render as a labeled constant-1 gauge, the convention for build/run
   metadata. *)

let prom_name name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    name

let prom_label_value s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let prometheus_text () =
  let buf = Buffer.create 2048 in
  List.iter
    (fun (name, v) ->
      let n = prom_name name in
      match v with
      | Metrics.Counter c ->
        Buffer.add_string buf (Printf.sprintf "# TYPE %s counter\n" n);
        Buffer.add_string buf (Printf.sprintf "%s %d\n" n c)
      | Metrics.Gauge g ->
        Buffer.add_string buf (Printf.sprintf "# TYPE %s gauge\n" n);
        Buffer.add_string buf (Printf.sprintf "%s %s\n" n (Json.to_string (Json.Float g)))
      | Metrics.Histogram h ->
        Buffer.add_string buf (Printf.sprintf "# TYPE %s histogram\n" n);
        let cumulative = ref 0 in
        List.iter
          (fun (floor, count) ->
            cumulative := !cumulative + count;
            Buffer.add_string buf
              (Printf.sprintf "%s_bucket{le=\"%d\"} %d\n" n floor !cumulative))
          h.Metrics.buckets;
        Buffer.add_string buf
          (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" n h.Metrics.count);
        Buffer.add_string buf (Printf.sprintf "%s_sum %d\n" n h.Metrics.sum);
        Buffer.add_string buf
          (Printf.sprintf "%s_count %d\n" n h.Metrics.count)
      | Metrics.Info s ->
        Buffer.add_string buf (Printf.sprintf "# TYPE %s_info gauge\n" n);
        Buffer.add_string buf
          (Printf.sprintf "%s_info{value=\"%s\"} 1\n" n (prom_label_value s)))
    (Metrics.dump ());
  Buffer.contents buf

(* --- Chrome trace_event ------------------------------------------------------- *)

(* [ts] and [dur] are integer microseconds.  Both span ends are floored, so
   a child never starts before or ends after its parent. *)
let chrome_event (s : Trace.span) =
  let us ns = Int64.to_int (Int64.div ns 1000L) in
  let ts = us s.Trace.start_ns in
  let dur = us (Int64.add s.Trace.start_ns s.Trace.dur_ns) - ts in
  Json.Obj
    [ ("name", Json.Str s.Trace.name);
      ("cat", Json.Str s.Trace.cat);
      ("ph", Json.Str "X");
      ("pid", Json.Int 1);
      ("tid", Json.Int s.Trace.track);
      ("ts", Json.Int ts);
      ("dur", Json.Int dur);
      ("args", Json.Obj (attrs s.Trace.args @ gc_words s)) ]

let chrome_meta name tid value =
  Json.Obj
    [ ("name", Json.Str name);
      ("ph", Json.Str "M");
      ("pid", Json.Int 1);
      ("tid", Json.Int tid);
      ("args", Json.Obj [ ("name", Json.Str value) ]) ]

let chrome_json () =
  let spans = Trace.spans () in
  let tracks =
    List.sort_uniq compare (List.map (fun s -> s.Trace.track) spans)
  in
  Json.Obj
    [ ( "traceEvents",
        Json.List
          ((chrome_meta "process_name" 0 "retiming-resynthesis"
           :: List.map
                (fun t ->
                  chrome_meta "thread_name" t (Printf.sprintf "domain %d" t))
                tracks)
          @ List.map chrome_event spans) ) ]

(* --- human summary ------------------------------------------------------------- *)

let text_summary () =
  let buf = Buffer.create 2048 in
  let metrics = Metrics.dump () in
  if metrics <> [] then begin
    Buffer.add_string buf "metrics:\n";
    List.iter
      (fun (name, v) ->
        let line =
          match v with
          | Metrics.Counter n -> Printf.sprintf "  %-44s %d\n" name n
          | Metrics.Gauge g -> Printf.sprintf "  %-44s %.4g\n" name g
          | Metrics.Histogram h ->
            let mean =
              if h.Metrics.count = 0 then 0.0
              else float_of_int h.Metrics.sum /. float_of_int h.Metrics.count
            in
            Printf.sprintf "  %-44s count %d  sum %d  mean %.1f  max %d\n"
              name h.Metrics.count h.Metrics.sum mean h.Metrics.max_value
          | Metrics.Info s -> Printf.sprintf "  %-44s %s\n" name s
        in
        Buffer.add_string buf line)
      metrics
  end;
  let spans = Trace.spans () in
  if spans <> [] then begin
    (* rollup by span name: calls, wall total, allocation total *)
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun (s : Trace.span) ->
        let calls, ns, words =
          match Hashtbl.find_opt tbl s.Trace.name with
          | Some x -> x
          | None -> (0, 0L, 0.0)
        in
        Hashtbl.replace tbl s.Trace.name
          ( calls + 1,
            Int64.add ns s.Trace.dur_ns,
            words +. s.Trace.minor_words ))
      spans;
    let rows =
      Hashtbl.fold (fun name v acc -> (name, v) :: acc) tbl []
      |> List.sort (fun (_, (_, a, _)) (_, (_, b, _)) -> Int64.compare b a)
    in
    Buffer.add_string buf "spans (by total wall time):\n";
    List.iter
      (fun (name, (calls, ns, words)) ->
        Buffer.add_string buf
          (Printf.sprintf "  %-44s calls %-6d total %8.2f ms  alloc %.0f kw\n"
             name calls
             (Int64.to_float ns /. 1e6)
             (words /. 1e3)))
      rows
  end;
  Buffer.contents buf
