module Events = Sfr_runtime.Events
module Sp_order = Sfr_reach.Sp_order
module Fp_sets = Sfr_reach.Fp_sets
module Cp_store = Sfr_reach.Cp_store
module Chunk_vec = Sfr_support.Chunk_vec

type violation = { future : int; message : string }

(* same strand state as SF-Order, minus the access history *)
type strand = {
  pos : Sp_order.pos;
  block : Sp_order.block option;
  fid : int;
  depth : int;
  gp : Fp_sets.table;
}

type Events.state += Dc of strand

let as_dc = function
  | Dc s -> s
  | _ -> Detect_error.foreign_state ~detector:"Discipline" ~context:"state unwrap"

type t = {
  callbacks : Events.callbacks;
  root : Events.state;
  violations : unit -> violation list;
}

let make () =
  let spo, root_pos = Sp_order.create () in
  let eng = Fp_sets.create Fp_sets.Bitmap in
  let cp = Cp_store.create () in
  (* continuation strand of each future's create, for the get check,
     indexed by future ID: [cp_mu] keeps the two stores' IDs in step *)
  let conts : strand option Chunk_vec.t = Chunk_vec.create None in
  ignore (Chunk_vec.push conts None);
  let cp_mu = Mutex.create () in
  let violations = ref [] in
  let violations_mu = Mutex.create () in
  let precedes (u : strand) (v : strand) =
    if u == v then true
    else if u.fid = v.fid then Sp_order.precedes spo u.pos v.pos
    else if Cp_store.mem cp v.fid ~fid:u.fid ~depth:u.depth then
      Sp_order.precedes spo u.pos v.pos
    else Fp_sets.mem v.gp u.fid
  in
  let callbacks =
    {
      Events.on_spawn =
        (fun cur ->
          let cur = as_dc cur in
          let c_pos, t_pos, blk = Sp_order.spawn spo ~cur:cur.pos ~block:cur.block in
          ( Dc { cur with pos = c_pos; block = None; gp = Fp_sets.share cur.gp },
            Dc { cur with pos = t_pos; block = Some blk } ));
      on_create =
        (fun cur ->
          let cur = as_dc cur in
          let c_pos, t_pos, blk = Sp_order.spawn spo ~cur:cur.pos ~block:cur.block in
          let cont = { cur with pos = t_pos; block = Some blk } in
          let fid =
            Mutex.protect cp_mu (fun () ->
                let fid = Cp_store.add_child cp ~parent:cur.fid in
                ignore (Chunk_vec.push conts (Some cont));
                fid)
          in
          let child =
            { pos = c_pos; block = None; fid; depth = cur.depth + 1; gp = Fp_sets.share cur.gp }
          in
          (Dc child, Dc cont));
      on_sync =
        (fun ~cur ~spawned_lasts ~created_firsts:_ ->
          let cur = as_dc cur in
          let pos = Sp_order.sync spo ~cur:cur.pos ~block:cur.block in
          let gp =
            Fp_sets.merge eng cur.gp (List.map (fun s -> (as_dc s).gp) spawned_lasts)
          in
          Dc { cur with pos; block = None; gp });
      on_put = (fun _ -> ());
      on_get =
        (fun ~cur ~put ->
          let cur = as_dc cur and put = as_dc put in
          (* the structured-use check: the create's continuation must
             reach the getting strand without the future's own edges *)
          (match Chunk_vec.get conts put.fid with
          | Some cont when precedes cont cur -> ()
          | Some _ ->
              Mutex.lock violations_mu;
              violations :=
                {
                  future = put.fid;
                  message =
                    Printf.sprintf
                      "get on future %d is not reachable from its create's \
                       continuation: unstructured use"
                      put.fid;
                }
                :: !violations;
              Mutex.unlock violations_mu
          | None -> () (* the root's slot; a gotten future is never the root *));
          let pos = Sp_order.step spo ~cur:cur.pos in
          let gp =
            Fp_sets.with_added eng (Fp_sets.merge eng cur.gp [ put.gp ]) put.fid
          in
          Dc { cur with pos; gp });
      on_returned = (fun ~cont:_ ~child_last:_ -> ());
      on_read = (fun _ _ -> ());
      on_write = (fun _ _ -> ());
      on_work = (fun _ _ -> ());
    }
  in
  {
    callbacks;
    root = Dc { pos = root_pos; block = None; fid = 0; depth = 0; gp = Fp_sets.empty eng };
    violations =
      (fun () ->
        Mutex.lock violations_mu;
        let v = List.rev !violations in
        Mutex.unlock violations_mu;
        v);
  }
