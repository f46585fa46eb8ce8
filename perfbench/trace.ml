type span = {
  id : int;
  parent : int;
  op : int;
  name : string;
  layer : string;
  tid : int;
  t0 : int;
  t1 : int;
}

type frame = { fid : int; fop : int; mutable child_ns : int }

type t = {
  tid : int;
  mutable next_id : int;
  mutable stack : frame list;
  mutable kept : span list;
  mutable self : (string * int) list;
}

type frozen = { spans : span list; self_ns : (string * int) list }

let create ~tid () = { tid; next_id = 0; stack = []; kept = []; self = [] }

let add_self self layer ns =
  let rec go = function
    | [] -> [ (layer, ns) ]
    | (l, v) :: rest when String.equal l layer -> (l, v + ns) :: rest
    | x :: rest -> x :: go rest
  in
  go self

let span t ?op ~layer name f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent, inherited = match t.stack with [] -> (-1, -1) | p :: _ -> (p.fid, p.fop) in
  let op = match op with Some o -> o | None -> inherited in
  let fr = { fid = id; fop = op; child_ns = 0 } in
  t.stack <- fr :: t.stack;
  let t0 = Clock.wall_ns () in
  let finish () =
    let t1 = Clock.wall_ns () in
    t.stack <- (match t.stack with _ :: rest -> rest | [] -> []);
    let dur = t1 - t0 in
    (match t.stack with p :: _ -> p.child_ns <- p.child_ns + dur | [] -> ());
    t.self <- add_self t.self layer (dur - fr.child_ns);
    t.kept <- { id; parent; op; name; layer; tid = t.tid; t0; t1 } :: t.kept
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let opt t ?op ~layer name f = match t with None -> f () | Some t -> span t ?op ~layer name f
let freeze t = { spans = List.rev t.kept; self_ns = t.self }
let empty = { spans = []; self_ns = [] }

let merge a b =
  {
    spans = a.spans @ b.spans;
    self_ns = List.fold_left (fun acc (l, ns) -> add_self acc l ns) a.self_ns b.self_ns;
  }

let self_s f layer =
  match List.assoc_opt layer f.self_ns with Some ns -> float_of_int ns *. 1e-9 | None -> 0.0

let write_chrome path f =
  let origin = List.fold_left (fun m s -> min m s.t0) max_int f.spans in
  let us ns = Json.Num (float_of_int (ns - origin) /. 1e3) in
  let event s =
    Json.Obj
      [
        ("name", Json.Str s.name);
        ("cat", Json.Str s.layer);
        ("ph", Json.Str "X");
        ("ts", us s.t0);
        ("dur", Json.Num (float_of_int (s.t1 - s.t0) /. 1e3));
        ("pid", Json.Int 1);
        ("tid", Json.Int s.tid);
        ("args", Json.Obj [ ("id", Json.Int s.id); ("parent", Json.Int s.parent); ("op", Json.Int s.op) ]);
      ]
  in
  let self =
    Json.Obj (List.map (fun (l, ns) -> (l, Json.Num (float_of_int ns *. 1e-9))) f.self_ns)
  in
  let oc = open_out path in
  output_string oc "{\"displayTimeUnit\": \"ns\", \"selfSeconds\": ";
  output_string oc (Json.compact self);
  output_string oc ", \"traceEvents\": [\n";
  List.iteri
    (fun i s ->
      if i > 0 then output_string oc ",\n";
      output_string oc (Json.compact (event s)))
    f.spans;
  output_string oc "\n]}\n";
  close_out oc
