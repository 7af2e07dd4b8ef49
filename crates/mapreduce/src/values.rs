//! Streaming value iterators handed to reducers and combiners.
//!
//! Reducers see the values of one key group as an iterator that lazily
//! deserializes from the merged run stream (reduce side) or from the sorted
//! record arena (combine side), so a group never has to be materialized —
//! this is what keeps SUFFIX-σ's reducer memory proportional to the stack
//! depth rather than the group size.

use crate::buffer::RecMeta;
use crate::error::{MrError, Result};
use crate::io::Writable;
use crate::merge::MergeStream;
use std::marker::PhantomData;

enum Inner<'a> {
    /// Values of a sorted arena group (combiner path).
    Arena {
        data: &'a [u8],
        metas: std::slice::Iter<'a, RecMeta>,
    },
    /// Values streamed from the reduce-side merge.
    Stream {
        stream: &'a mut MergeStream,
        group_key: &'a [u8],
        pending_val: Option<Vec<u8>>,
        key_buf: Vec<u8>,
        val_buf: Vec<u8>,
        done: bool,
    },
}

/// Iterator over the deserialized values of one reduce group.
pub struct ValueIter<'a, V: Writable> {
    inner: Inner<'a>,
    consumed: u64,
    error: Option<MrError>,
    _marker: PhantomData<fn() -> V>,
}

fn decode<V: Writable>(bytes: &[u8], consumed: &mut u64, error: &mut Option<MrError>) -> Option<V> {
    match crate::io::from_bytes::<V>(bytes) {
        Ok(v) => {
            *consumed += 1;
            Some(v)
        }
        Err(e) => {
            *error = Some(e);
            None
        }
    }
}

impl<'a, V: Writable> ValueIter<'a, V> {
    pub(crate) fn arena(data: &'a [u8], metas: &'a [RecMeta]) -> Self {
        ValueIter {
            inner: Inner::Arena {
                data,
                metas: metas.iter(),
            },
            consumed: 0,
            error: None,
            _marker: PhantomData,
        }
    }

    pub(crate) fn stream(
        stream: &'a mut MergeStream,
        group_key: &'a [u8],
        first_val: Vec<u8>,
    ) -> Self {
        ValueIter {
            inner: Inner::Stream {
                stream,
                group_key,
                pending_val: Some(first_val),
                key_buf: Vec::new(),
                val_buf: Vec::new(),
                done: false,
            },
            consumed: 0,
            error: None,
            _marker: PhantomData,
        }
    }

    /// Drain any unconsumed values (so the merge advances past the group)
    /// and report how many values the group contained in total.
    pub(crate) fn finish(mut self) -> Result<u64> {
        while self.next().is_some() {}
        match self.error.take() {
            Some(e) => Err(e),
            None => Ok(self.consumed),
        }
    }
}

impl<V: Writable> Iterator for ValueIter<'_, V> {
    type Item = V;

    fn next(&mut self) -> Option<V> {
        if self.error.is_some() {
            return None;
        }
        let ValueIter {
            inner,
            consumed,
            error,
            ..
        } = self;
        match inner {
            Inner::Arena { data, metas } => {
                let m = metas.next()?;
                decode::<V>(
                    &data[m.key_end as usize..m.val_end as usize],
                    consumed,
                    error,
                )
            }
            Inner::Stream {
                stream,
                group_key,
                pending_val,
                key_buf,
                val_buf,
                done,
            } => {
                if let Some(v) = pending_val.take() {
                    return decode::<V>(&v, consumed, error);
                }
                if *done {
                    return None;
                }
                // Only records whose key equals the group key belong here.
                if !stream.next_in_group(group_key) {
                    *done = true;
                    return None;
                }
                match stream.next_record(key_buf, val_buf) {
                    Ok(true) => decode::<V>(val_buf, consumed, error),
                    Ok(false) => {
                        *done = true;
                        None
                    }
                    Err(e) => {
                        *error = Some(e);
                        None
                    }
                }
            }
        }
    }
}
