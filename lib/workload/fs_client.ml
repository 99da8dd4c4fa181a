open Engine
open Core

type t = { watcher : Sampler.t }

let page_blocks = 16 (* 8 KB pages of 512-byte blocks *)
let depth = 16 (* transactions kept outstanding *)

let sampler t = t.watcher

let start sys ~name ~qos () =
  let u = System.usd sys in
  match Usbs.Usd.admit u ~name ~qos ~channel_depth:(max 64 (2 * depth)) () with
  | Error _ as e -> e
  | Ok client ->
    let fs_start, fs_len = System.fs_partition sys in
    let bytes = ref 0 in
    let sim = System.sim sys in
    ignore
      (Proc.spawn ~name:(name ^ ".pump") sim (fun () ->
           let outstanding = Queue.create () in
           let pos = ref 0 in
           let rec loop () =
             let lba = fs_start + !pos in
             pos := !pos + page_blocks;
             if !pos + page_blocks > fs_len then pos := 0;
             (match
                Usbs.Usd.submit u client Usbs.Usd.Read ~lba
                  ~nblocks:page_blocks
              with
             | Ok ivar -> Queue.add ivar outstanding
             | Error `Retired -> ());
             if Queue.length outstanding >= depth then begin
               (* Injected errors on file-system traffic are tolerated:
                  the streamer only measures throughput. *)
               ignore (Sync.Ivar.read (Queue.pop outstanding) : Usbs.Usd.status);
               bytes := !bytes + (page_blocks * 512)
             end;
             loop ()
           in
           loop ()));
    let watcher =
      Sampler.start sim ~name:(name ^ ".watch") ~period:(Time.sec 5)
        ~bytes:(fun () -> !bytes) ()
    in
    Ok { watcher }
