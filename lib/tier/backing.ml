type io_error = [ `Lost_pages of int list | `Retired | `Crashed ]

type t = {
  label : string;
  page_capacity : unit -> int;
  journaled : unit -> bool;
  read_pages : page_index:int -> npages:int -> (unit, io_error) result;
  write_page : page_index:int -> (unit, io_error) result;
  write_pages : page_index:int -> npages:int -> (unit, io_error) result;
  write_pages_commit :
    page_index:int ->
    npages:int ->
    pages:(int * int) list ->
    retire:(int * int) list ->
    (unit, io_error) result;
  slot_committed : int -> bool;
  extent : unit -> int * int;
}

let of_sfs swap =
  { label = "sfs";
    page_capacity = (fun () -> Usbs.Sfs.page_capacity swap);
    journaled = (fun () -> Usbs.Sfs.swap_journaled swap);
    read_pages =
      (fun ~page_index ~npages ->
        Usbs.Sfs.read_pages swap ~page_index ~npages);
    write_page = (fun ~page_index -> Usbs.Sfs.write_page swap ~page_index);
    write_pages =
      (fun ~page_index ~npages ->
        Usbs.Sfs.write_pages swap ~page_index ~npages);
    write_pages_commit =
      (fun ~page_index ~npages ~pages ~retire ->
        Usbs.Sfs.write_pages_commit swap ~page_index ~npages ~pages ~retire);
    slot_committed = (fun slot -> Usbs.Sfs.slot_committed swap slot);
    extent =
      (fun () -> (Usbs.Sfs.extent_start swap, Usbs.Sfs.extent_blocks swap)) }
