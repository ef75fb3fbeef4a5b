package repro.core

import org.apache.spark.sql.Row

/** Typed reads of numeric aggregate cells from a collected Row. Spark types
  * a sum or an average as Long, Double or BigDecimal depending on its input,
  * and an aggregate over no rows is null, which reads as 0.
  */
private[repro] object Rows {

  def long(row: Row, i: Int): Long = row.get(i) match {
    case null                    => 0L
    case d: java.math.BigDecimal => d.longValueExact()
    case n: Number               => n.longValue
    case other                   => notNumeric(row, i, other)
  }

  def double(row: Row, i: Int): Double = row.get(i) match {
    case null      => 0.0
    case n: Number => n.doubleValue
    case other     => notNumeric(row, i, other)
  }

  private def notNumeric(row: Row, i: Int, value: Any): Nothing =
    throw new IllegalArgumentException(s"column $i of $row is not numeric: $value")
}
