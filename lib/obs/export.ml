(* %S is OCaml string syntax, which coincides with JSON escaping for the
   printable-ASCII names and messages produced here (same convention as
   Verify.render_json / Eqcheck.render_json). *)

let attr_json = function
  | Trace.Str s -> Printf.sprintf "%S" s
  | Trace.Int i -> string_of_int i
  | Trace.Float f -> Printf.sprintf "%.6g" f
  | Trace.Bool b -> string_of_bool b

let args_json args =
  String.concat ", "
    (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (attr_json v)) args)

let float_json f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else Printf.sprintf "%.6g" f

(* --- machine JSON ------------------------------------------------------------ *)

let histogram_json (h : Metrics.histogram_snapshot) =
  let buckets =
    String.concat ", "
      (List.map
         (fun (floor, n) -> Printf.sprintf "\"%d\": %d" floor n)
         h.Metrics.buckets)
  in
  Printf.sprintf
    "{ \"count\": %d, \"sum\": %d, \"max\": %d, \"buckets\": { %s } }"
    h.Metrics.count h.Metrics.sum h.Metrics.max_value buckets

let metrics_json ?(prefix = "") () =
  let items =
    List.filter
      (fun (name, _) -> String.starts_with ~prefix name)
      (Metrics.dump ())
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"metrics\": {\n";
  List.iteri
    (fun i (name, v) ->
      let rendered =
        match v with
        | Metrics.Counter n -> string_of_int n
        | Metrics.Gauge g -> float_json g
        | Metrics.Histogram h -> histogram_json h
        | Metrics.Info s -> Printf.sprintf "%S" s
      in
      Buffer.add_string buf
        (Printf.sprintf "    %S: %s%s\n" name rendered
           (if i = List.length items - 1 then "" else ",")))
    items;
  Buffer.add_string buf "  }\n}";
  Buffer.contents buf

let span_json (s : Trace.span) =
  let args =
    if s.Trace.args = [] then ""
    else Printf.sprintf ", \"args\": { %s }" (args_json s.Trace.args)
  in
  Printf.sprintf
    "{ \"name\": %S, \"cat\": %S, \"track\": %d, \"depth\": %d, \
     \"start_ns\": %Ld, \"dur_ns\": %Ld, \"gc_minor_words\": %.0f, \
     \"gc_major_words\": %.0f%s }"
    s.Trace.name s.Trace.cat s.Trace.track s.Trace.depth s.Trace.start_ns
    s.Trace.dur_ns s.Trace.minor_words s.Trace.major_words args

let spans_json () =
  let spans = Trace.spans () in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "[\n";
  List.iteri
    (fun i (s : Trace.span) ->
      let args =
        if s.Trace.args = [] then ""
        else Printf.sprintf ", \"args\": { %s }" (args_json s.Trace.args)
      in
      Buffer.add_string buf
        (Printf.sprintf
           "  { \"name\": %S, \"cat\": %S, \"track\": %d, \"depth\": %d, \
            \"start_ns\": %Ld, \"dur_ns\": %Ld, \"gc_minor_words\": %.0f, \
            \"gc_major_words\": %.0f%s }%s\n"
           s.Trace.name s.Trace.cat s.Trace.track s.Trace.depth
           s.Trace.start_ns s.Trace.dur_ns s.Trace.minor_words
           s.Trace.major_words args
           (if i = List.length spans - 1 then "" else ",")))
    spans;
  Buffer.add_string buf "]";
  Buffer.contents buf

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
        Buffer.add_string buf (Printf.sprintf "%s %s\n" n (float_json g))
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

let chrome_json () =
  let spans = Trace.spans () in
  let tracks =
    List.sort_uniq compare (List.map (fun s -> s.Trace.track) spans)
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\": [\n";
  Buffer.add_string buf
    "  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, \
     \"args\": {\"name\": \"retiming-resynthesis\"}},\n";
  List.iter
    (fun t ->
      Buffer.add_string buf
        (Printf.sprintf
           "  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \
            \"tid\": %d, \"args\": {\"name\": \"domain %d\"}},\n"
           t t))
    tracks;
  List.iteri
    (fun i (s : Trace.span) ->
      let gc_args =
        Printf.sprintf "\"gc_minor_words\": %.0f, \"gc_major_words\": %.0f"
          s.Trace.minor_words s.Trace.major_words
      in
      let args =
        if s.Trace.args = [] then gc_args
        else args_json s.Trace.args ^ ", " ^ gc_args
      in
      Buffer.add_string buf
        (Printf.sprintf
           "  {\"name\": %S, \"cat\": %S, \"ph\": \"X\", \"pid\": 1, \
            \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": {%s}}%s\n"
           s.Trace.name s.Trace.cat s.Trace.track
           (Int64.to_float s.Trace.start_ns /. 1e3)
           (Int64.to_float s.Trace.dur_ns /. 1e3)
           args
           (if i = List.length spans - 1 then "" else ",")))
    spans;
  Buffer.add_string buf "]}";
  Buffer.contents buf

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

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  output_char oc '\n';
  close_out oc
